#include "baselines/sparcml.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "baselines/agsparse.h"
#include "baselines/ring.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/event_queue.h"

namespace omr::baselines {

namespace {

/// All-to-all chunk: opaque bytes; completion tracked by byte counts.
struct ExchangeChunk final : net::Message {
  std::size_t bytes = 0;
  bool last_of_flow = false;  // last chunk of (src -> dst) flow
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override { return header_bytes + bytes; }
};

class ExchangeNode final : public net::Endpoint {
 public:
  ExchangeNode(net::Network& net, const BaselineConfig& cfg, int rank, int n)
      : net_(net), sim_(net.simulator()), cfg_(cfg), rank_(rank), n_(n) {}
  void bind(net::EndpointId self, std::vector<net::EndpointId> all) {
    self_ = self;
    all_ = std::move(all);
  }
  /// Send `bytes[p]` to each peer p != rank (chunked).
  void start(const std::vector<std::size_t>& bytes) {
    flows_expected_ = static_cast<int>(n_ - 1);
    for (int p = 0; p < n_; ++p) {
      if (p == rank_) continue;
      const std::size_t total = bytes[static_cast<size_t>(p)];
      const std::size_t chunk = cfg_.chunk_elements * 4;
      std::size_t sent = 0;
      do {
        auto m = std::make_shared<ExchangeChunk>();
        m->bytes = std::min(chunk, total - sent);
        m->header_bytes = cfg_.header_bytes;
        sent += m->bytes;
        m->last_of_flow = sent >= total;
        net_.send(self_, all_[static_cast<size_t>(p)], std::move(m));
      } while (sent < total);
    }
    maybe_finish();
  }
  bool done() const { return done_; }
  sim::Time finish_time() const { return finish_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* c = dynamic_cast<const ExchangeChunk*>(msg.get());
    if (c == nullptr) throw std::logic_error("unexpected exchange message");
    if (c->last_of_flow) {
      --flows_expected_;
      maybe_finish();
    }
  }

 private:
  void maybe_finish() {
    if (flows_expected_ == 0 && !done_) {
      done_ = true;
      finish_ = sim_.now();
    }
  }
  net::Network& net_;
  sim::Simulator& sim_;
  BaselineConfig cfg_;
  int rank_;
  int n_;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> all_;
  int flows_expected_ = 0;
  bool done_ = false;
  sim::Time finish_ = 0;
};

}  // namespace

sim::Time detail::all_to_all_bytes(
    const std::vector<std::vector<std::size_t>>& bytes_matrix,
    const BaselineConfig& cfg, std::uint64_t* total_tx) {
  const int n = static_cast<int>(bytes_matrix.size());
  sim::Simulator simulator;
  net::Network network(simulator, cfg.one_way_latency, cfg.seed);
  std::vector<std::unique_ptr<ExchangeNode>> nodes;
  std::vector<net::EndpointId> eps;
  for (int r = 0; r < n; ++r) {
    nodes.push_back(std::make_unique<ExchangeNode>(network, cfg, r, n));
    eps.push_back(network.attach(nodes.back().get(),
                                 network.add_nic({cfg.bandwidth_bps,
                                                  cfg.bandwidth_bps})));
  }
  for (int r = 0; r < n; ++r) nodes[static_cast<size_t>(r)]->bind(
      eps[static_cast<size_t>(r)], eps);
  for (int r = 0; r < n; ++r) nodes[static_cast<size_t>(r)]->start(
      bytes_matrix[static_cast<size_t>(r)]);
  simulator.run();
  sim::Time t = 0;
  std::uint64_t tx = 0;
  for (int r = 0; r < n; ++r) {
    if (!nodes[static_cast<size_t>(r)]->done()) {
      throw std::logic_error("all-to-all stalled");
    }
    t = std::max(t, nodes[static_cast<size_t>(r)]->finish_time());
    tx += network.nic_stats(network.nic_of(eps[static_cast<size_t>(r)]))
              .tx_bytes;
  }
  if (total_tx != nullptr) *total_tx = tx;
  return t;
}

SparcmlVariant detail::sparcml_choose_variant(std::size_t dim, std::size_t max_nnz,
                                      std::size_t n_workers) {
  // Latency-bandwidth model: below ~4K pairs per worker the alpha terms
  // dominate and recursive doubling wins; otherwise split-allgather. If the
  // union is expected to exceed the sparse break-even (rho = dim/2 with
  // 4-byte keys/values), switch representations dynamically (DSAR).
  if (max_nnz * 8 < 32 * 1024) return SparcmlVariant::kSsarRecursiveDoubling;
  const double expected_union =
      static_cast<double>(dim) *
      (1.0 - std::pow(1.0 - static_cast<double>(max_nnz) / dim,
                      static_cast<double>(n_workers)));
  if (expected_union > static_cast<double>(dim) / 2.0) {
    return SparcmlVariant::kDsarSplitAllgather;
  }
  return SparcmlVariant::kSsarSplitAllgather;
}

BaselineStats detail::sparcml_allreduce(
    const std::vector<tensor::CooTensor>& inputs,
                                tensor::CooTensor& result,
                                const BaselineConfig& cfg,
                                SparcmlVariant variant,
                                double reduce_mem_bandwidth_Bps) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  const std::size_t n = inputs.size();
  const std::size_t dim = inputs.front().dim;
  BaselineStats stats;

  // The reduced result (identical across workers): computed once for
  // verification and payload sizing.
  result = merge_in_worker_order(inputs);

  if (variant == SparcmlVariant::kSsarRecursiveDoubling) {
    // log2(N) exchange-and-merge steps; payload grows toward the union.
    // Before the step with distance d, rank r holds the merge of the
    // aligned group of d ranks containing it; only its size matters.
    if ((n & (n - 1)) != 0) {
      throw std::invalid_argument("recursive doubling needs power-of-two N");
    }
    std::size_t merge_pairs = 0;
    std::vector<std::size_t> held(n);
    for (std::size_t r = 0; r < n; ++r) held[r] = inputs[r].nnz();
    tensor::SparseRangeAccumulator group;
    sim::Time t = 0;
    for (std::size_t d = 1; d < n; d *= 2) {
      // All pairs exchange concurrently; the step's time is set by the
      // largest payload in flight.
      std::size_t max_bytes = 0;
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t bytes = held[r] * 8;
        max_bytes = std::max(max_bytes, bytes);
        stats.total_tx_bytes += bytes + cfg.header_bytes;
      }
      t += cfg.one_way_latency +
           sim::from_seconds(static_cast<double>(max_bytes + cfg.header_bytes) *
                             8.0 / cfg.bandwidth_bps) *
               2;  // TX + RX store-and-forward
      for (std::size_t r = 0; r < n; ++r) merge_pairs += held[r] + held[r ^ d];
      for (std::size_t first = 0; first < n; first += 2 * d) {
        group.reset(0, static_cast<std::int64_t>(dim));
        for (std::size_t r = first; r < first + 2 * d; ++r) {
          group.add(inputs[r]);
        }
        for (std::size_t r = first; r < first + 2 * d; ++r) {
          held[r] = group.size();
        }
      }
    }
    stats.completion_time =
        t + sim::from_seconds(static_cast<double>(merge_pairs / n) * 8.0 /
                              reduce_mem_bandwidth_Bps);
    return stats;
  }

  // ---- Phase 1: split + all-to-all to partition owners -------------------
  // Owner p reduces partition [dim*p/N, dim*(p+1)/N): the result's slice.
  std::vector<std::vector<std::size_t>> bytes(n, std::vector<std::size_t>(n, 0));
  std::vector<std::size_t> reduced_nnz(n);
  std::size_t merge_pairs_max = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::int64_t lo = static_cast<std::int64_t>(dim * p / n);
    const std::int64_t hi = static_cast<std::int64_t>(dim * (p + 1) / n);
    std::size_t merge_pairs = 0;
    for (std::size_t w = 0; w < n; ++w) {
      const auto [begin, end] = tensor::coo_key_range(inputs[w], lo, hi);
      merge_pairs += end - begin;
      if (w != p) bytes[w][p] = (end - begin) * 8;
    }
    const auto [begin, end] = tensor::coo_key_range(result, lo, hi);
    reduced_nnz[p] = end - begin;
    merge_pairs_max = std::max(merge_pairs_max, merge_pairs);
  }
  stats.completion_time =
      detail::all_to_all_bytes(bytes, cfg, &stats.total_tx_bytes);
  // Owners reduce after gathering (serial with communication, §2.1).
  stats.completion_time += sim::from_seconds(
      static_cast<double>(merge_pairs_max) * 8.0 * 2.0 /
      reduce_mem_bandwidth_Bps);

  // ---- Phase 2: concatenating allgather of reduced partitions ------------
  std::vector<std::size_t> phase2(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t range =
        dim * (p + 1) / n - dim * p / n;
    const std::size_t sparse_bytes = reduced_nnz[p] * 8;
    if (variant == SparcmlVariant::kDsarSplitAllgather &&
        reduced_nnz[p] > range / 2) {
      phase2[p] = range * 4;  // switched to dense representation
    } else {
      phase2[p] = sparse_bytes;
    }
  }
  std::uint64_t tx2 = 0;
  stats.completion_time += ring_allgather_bytes(phase2, cfg, &tx2);
  stats.total_tx_bytes += tx2;
  return stats;
}

}  // namespace omr::baselines
