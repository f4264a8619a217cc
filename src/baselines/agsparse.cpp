#include "baselines/agsparse.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "net/message.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "tensor/index_codec.h"

namespace omr::baselines {

namespace {

/// Opaque payload chunk for byte-accounted collectives.
struct BlobChunk final : net::Message {
  int step = 0;
  std::size_t bytes = 0;
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override { return header_bytes + bytes; }
};

class GatherNode final : public net::Endpoint {
 public:
  GatherNode(net::Network& net, const BaselineConfig& cfg, int rank, int n,
             const std::vector<std::size_t>& payloads)
      : net_(net), sim_(net.simulator()), cfg_(cfg), rank_(rank), n_(n),
        payloads_(payloads) {}
  void bind(net::EndpointId self, net::EndpointId succ) {
    self_ = self;
    succ_ = succ;
  }
  void start() {
    if (n_ == 1) {
      done_ = true;
      finish_ = sim_.now();
      return;
    }
    send_step(0);
  }
  bool done() const { return done_; }
  sim::Time finish_time() const { return finish_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* c = dynamic_cast<const BlobChunk*>(msg.get());
    if (c == nullptr) throw std::logic_error("unexpected gather message");
    recv_remaining_ -= c->bytes;
    if (recv_remaining_ == 0) {
      ++step_;
      if (step_ == n_ - 1) {
        done_ = true;
        finish_ = sim_.now();
        return;
      }
      send_step(step_);
    }
  }

 private:
  void send_step(int step) {
    const int send_owner = ((rank_ - step) % n_ + n_) % n_;
    const int recv_owner = ((rank_ - step - 1) % n_ + n_) % n_;
    recv_remaining_ = payloads_[static_cast<size_t>(recv_owner)];
    const std::size_t total = payloads_[static_cast<size_t>(send_owner)];
    const std::size_t chunk = cfg_.chunk_elements * 4;
    std::size_t sent = 0;
    do {
      auto m = std::make_shared<BlobChunk>();
      m->step = step;
      m->bytes = std::min(chunk, total - sent);
      m->header_bytes = cfg_.header_bytes;
      sent += m->bytes;
      net_.send(self_, succ_, std::move(m));
    } while (sent < total);
    if (recv_remaining_ == 0) {
      ++step_;
      if (step_ == n_ - 1) {
        done_ = true;
        finish_ = sim_.now();
      } else {
        send_step(step_);
      }
    }
  }

  net::Network& net_;
  sim::Simulator& sim_;
  BaselineConfig cfg_;
  int rank_;
  int n_;
  const std::vector<std::size_t>& payloads_;
  net::EndpointId self_ = -1;
  net::EndpointId succ_ = -1;
  int step_ = 0;
  std::size_t recv_remaining_ = 0;
  bool done_ = false;
  sim::Time finish_ = 0;
};

}  // namespace

sim::Time detail::ring_allgather_bytes(
    const std::vector<std::size_t>& payload_bytes, const BaselineConfig& cfg,
    std::uint64_t* total_tx_bytes) {
  const int n = static_cast<int>(payload_bytes.size());
  if (n == 0) throw std::invalid_argument("no workers");
  sim::Simulator simulator;
  net::Network network(simulator, cfg.one_way_latency, cfg.seed);
  std::vector<std::unique_ptr<GatherNode>> nodes;
  std::vector<net::EndpointId> eps;
  for (int r = 0; r < n; ++r) {
    nodes.push_back(std::make_unique<GatherNode>(network, cfg, r, n,
                                                 payload_bytes));
    eps.push_back(network.attach(nodes.back().get(),
                                 network.add_nic({cfg.bandwidth_bps,
                                                  cfg.bandwidth_bps})));
  }
  for (int r = 0; r < n; ++r) {
    nodes[static_cast<size_t>(r)]->bind(eps[static_cast<size_t>(r)],
                                        eps[static_cast<size_t>((r + 1) % n)]);
  }
  for (auto& node : nodes) node->start();
  simulator.run();
  sim::Time t = 0;
  std::uint64_t tx = 0;
  for (int r = 0; r < n; ++r) {
    if (!nodes[static_cast<size_t>(r)]->done()) {
      throw std::logic_error("allgather stalled");
    }
    t = std::max(t, nodes[static_cast<size_t>(r)]->finish_time());
    tx += network.nic_stats(network.nic_of(eps[static_cast<size_t>(r)]))
              .tx_bytes;
  }
  if (total_tx_bytes != nullptr) *total_tx_bytes = tx;
  return t;
}

BaselineStats detail::agsparse_allreduce(
    const std::vector<tensor::CooTensor>& inputs,
    std::vector<tensor::CooTensor>& outputs, const BaselineConfig& cfg,
    AgStack stack, double reduce_mem_bandwidth_Bps, bool compress_indices) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  const std::size_t n = inputs.size();
  // Communication: ring-allgather every worker's (keys, values) payload.
  std::vector<std::size_t> payloads;
  payloads.reserve(n);
  std::size_t total_pairs = 0;
  for (const auto& t : inputs) {
    payloads.push_back(compress_indices
                           ? tensor::coo_wire_bytes_compressed(t.nnz(), t.dim)
                           : t.wire_bytes());
    total_pairs += t.nnz();
  }
  BaselineStats stats;
  stats.completion_time =
      ring_allgather_bytes(payloads, cfg, &stats.total_tx_bytes);

  // Gloo (TCP) copies every received byte through the host once more.
  if (stack == AgStack::kGloo) {
    std::size_t total_bytes = 0;
    for (std::size_t b : payloads) total_bytes += b;
    const double rx_per_node =
        static_cast<double>(total_bytes) * (static_cast<double>(n - 1) / n);
    stats.completion_time += sim::from_seconds(
        rx_per_node / (cfg.host_copy_bandwidth_Bps > 0
                           ? cfg.host_copy_bandwidth_Bps
                           : 6e9));
  }

  // Local reduction: merge N sorted COO lists (read everything once, write
  // the union), memory-bandwidth bound. Performed after communication —
  // AGsparse does not overlap the two (§2.1).
  tensor::CooTensor merged = inputs.front();
  for (std::size_t w = 1; w < n; ++w) merged = tensor::coo_add(merged, inputs[w]);
  const double merge_bytes =
      static_cast<double>(total_pairs + merged.nnz()) * 8.0;
  stats.completion_time +=
      sim::from_seconds(merge_bytes / reduce_mem_bandwidth_Bps);

  outputs.assign(n, merged);
  return stats;
}

}  // namespace omr::baselines
