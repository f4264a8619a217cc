#include "core/sparse_kv.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <stdexcept>

#include "net/network.h"

namespace omr::core {

namespace {

constexpr std::int64_t kInfKey = std::numeric_limits<std::int64_t>::max();
/// Header bytes of every KV packet and result, in both directions.
constexpr std::size_t kKvHeaderBytes = 64;

/// Block of key-value pairs, worker -> aggregator (Algorithm 3 packet).
struct KvPacket final : net::Message {
  std::uint32_t wid = 0;
  std::vector<std::int32_t> keys;
  std::vector<float> values;
  std::int64_t nextkey = kInfKey;
  std::size_t wire_bytes() const override {
    return kKvHeaderBytes + keys.size() * 8 + 8;  // pairs + nextkey
  }
};

/// Aggregated prefix, aggregator -> workers.
struct KvResult final : net::Message {
  std::vector<std::int32_t> keys;
  std::vector<float> values;
  std::int64_t nextkey = kInfKey;  // send_up_to watermark
  std::size_t wire_bytes() const override {
    return kKvHeaderBytes + keys.size() * 8 + 8;
  }
};

class KvAggregator final : public net::Endpoint {
 public:
  KvAggregator(net::Network& net, std::size_t n_workers) : net_(net) {
    nextkey_.assign(n_workers, std::numeric_limits<std::int64_t>::min());
  }
  void bind(net::EndpointId self, std::vector<net::EndpointId> workers) {
    self_ = self;
    workers_ = std::move(workers);
  }
  std::uint64_t rounds() const { return rounds_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* p = net::message_cast<KvPacket>(msg.get());
    if (p == nullptr) throw std::logic_error("unexpected message");
    nextkey_[p->wid] = p->nextkey;
    merge_run(p->keys, p->values);
    const std::int64_t send_up_to =
        *std::min_element(nextkey_.begin(), nextkey_.end());
    if (send_up_to > sent_) {
      auto r = std::make_shared<KvResult>();
      r->nextkey = send_up_to;
      std::size_t hi = keys_.size();
      if (send_up_to < kInfKey) {
        hi = static_cast<std::size_t>(
            std::lower_bound(
                keys_.begin() + static_cast<std::ptrdiff_t>(emit_pos_),
                keys_.end(), static_cast<std::int32_t>(send_up_to)) -
            keys_.begin());
      }
      r->keys.assign(keys_.begin() + static_cast<std::ptrdiff_t>(emit_pos_),
                     keys_.begin() + static_cast<std::ptrdiff_t>(hi));
      r->values.assign(vals_.begin() + static_cast<std::ptrdiff_t>(emit_pos_),
                       vals_.begin() + static_cast<std::ptrdiff_t>(hi));
      emit_pos_ = hi;
      // Amortized O(1): drop the emitted prefix once it dominates the run.
      if (emit_pos_ > 4096 && emit_pos_ * 2 > keys_.size()) {
        keys_.erase(keys_.begin(),
                    keys_.begin() + static_cast<std::ptrdiff_t>(emit_pos_));
        vals_.erase(vals_.begin(),
                    vals_.begin() + static_cast<std::ptrdiff_t>(emit_pos_));
        emit_pos_ = 0;
      }
      sent_ = send_up_to;
      ++rounds_;
      net::MessagePtr shared = r;
      for (net::EndpointId w : workers_) net_.send(self_, w, shared);
    }
  }

 private:
  /// Fold one sorted (keys, values) run into the accumulator. Incoming
  /// keys are all >= the watermark already emitted (Algorithm 3: a worker
  /// never sends below the global minimum it acknowledged), so the merge
  /// touches only the unemitted tail — no per-pair node allocation, one
  /// linear pass, values added in arrival order exactly as the keyed-map
  /// accumulator did.
  void merge_run(const std::vector<std::int32_t>& ks,
                 const std::vector<float>& vs) {
    if (ks.empty()) return;
    const std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(
            keys_.begin() + static_cast<std::ptrdiff_t>(emit_pos_),
            keys_.end(), ks.front()) -
        keys_.begin());
    if (lo == keys_.size()) {  // strictly past the tail: plain append
      keys_.insert(keys_.end(), ks.begin(), ks.end());
      vals_.insert(vals_.end(), vs.begin(), vs.end());
      return;
    }
    merge_keys_.clear();
    merge_vals_.clear();
    merge_keys_.reserve(keys_.size() - lo + ks.size());
    merge_vals_.reserve(keys_.size() - lo + ks.size());
    std::size_t i = lo;
    std::size_t j = 0;
    while (i < keys_.size() && j < ks.size()) {
      if (keys_[i] < ks[j]) {
        merge_keys_.push_back(keys_[i]);
        merge_vals_.push_back(vals_[i]);
        ++i;
      } else if (ks[j] < keys_[i]) {
        merge_keys_.push_back(ks[j]);
        merge_vals_.push_back(vs[j]);
        ++j;
      } else {
        merge_keys_.push_back(keys_[i]);
        merge_vals_.push_back(vals_[i] + vs[j]);
        ++i;
        ++j;
      }
    }
    merge_keys_.insert(merge_keys_.end(), keys_.begin() + static_cast<std::ptrdiff_t>(i),
                       keys_.end());
    merge_vals_.insert(merge_vals_.end(), vals_.begin() + static_cast<std::ptrdiff_t>(i),
                       vals_.end());
    merge_keys_.insert(merge_keys_.end(), ks.begin() + static_cast<std::ptrdiff_t>(j),
                       ks.end());
    merge_vals_.insert(merge_vals_.end(), vs.begin() + static_cast<std::ptrdiff_t>(j),
                       vs.end());
    keys_.resize(lo);
    vals_.resize(lo);
    keys_.insert(keys_.end(), merge_keys_.begin(), merge_keys_.end());
    vals_.insert(vals_.end(), merge_vals_.begin(), merge_vals_.end());
  }

  net::Network& net_;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> workers_;
  std::vector<std::int64_t> nextkey_;
  std::vector<std::int32_t> keys_;  // sorted unique accumulator run
  std::vector<float> vals_;         // parallel to keys_
  std::size_t emit_pos_ = 0;        // keys_[0..emit_pos_) already multicast
  std::vector<std::int32_t> merge_keys_;  // scratch (reused across rounds)
  std::vector<float> merge_vals_;
  std::int64_t sent_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t rounds_ = 0;
};

class KvWorker final : public net::Endpoint {
 public:
  KvWorker(net::Network& net, std::uint32_t wid,
           const tensor::CooTensor& input, std::size_t block)
      : net_(net),
        sim_(net.simulator()),
        wid_(wid),
        input_(input),
        block_(block) {
    result_.dim = input.dim;
  }
  void bind(net::EndpointId self, net::EndpointId agg) {
    self_ = self;
    agg_ = agg;
  }
  void start() { send_next_block(); }
  bool done() const { return done_; }
  sim::Time finish_time() const { return finish_; }
  const tensor::CooTensor& result() const { return result_; }
  std::uint64_t pair_bytes_sent() const { return pair_bytes_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* r = net::message_cast<KvResult>(msg.get());
    if (r == nullptr) throw std::logic_error("unexpected message");
    result_.keys.insert(result_.keys.end(), r->keys.begin(), r->keys.end());
    result_.values.insert(result_.values.end(), r->values.begin(),
                          r->values.end());
    if (r->nextkey >= kInfKey) {
      done_ = true;
      finish_ = sim_.now();
      return;
    }
    // Only a worker whose next unsent key is the global minimum responds
    // (Algorithm 3 line 10).
    if (cursor_ < input_.nnz() && r->nextkey >= input_.keys[cursor_]) {
      send_next_block();
    }
  }

 private:
  void send_next_block() {
    auto p = std::make_shared<KvPacket>();
    p->wid = wid_;
    const std::size_t end = std::min(cursor_ + block_, input_.nnz());
    p->keys.assign(input_.keys.begin() + static_cast<std::ptrdiff_t>(cursor_),
                   input_.keys.begin() + static_cast<std::ptrdiff_t>(end));
    p->values.assign(
        input_.values.begin() + static_cast<std::ptrdiff_t>(cursor_),
        input_.values.begin() + static_cast<std::ptrdiff_t>(end));
    cursor_ = end;
    p->nextkey =
        cursor_ < input_.nnz() ? input_.keys[cursor_] : kInfKey;
    pair_bytes_ += p->keys.size() * 8;
    net_.send(self_, agg_, std::move(p));
  }

  net::Network& net_;
  sim::Simulator& sim_;
  std::uint32_t wid_;
  const tensor::CooTensor& input_;
  std::size_t block_;
  net::EndpointId self_ = -1;
  net::EndpointId agg_ = -1;
  std::size_t cursor_ = 0;
  tensor::CooTensor result_;
  bool done_ = false;
  sim::Time finish_ = 0;
  std::uint64_t pair_bytes_ = 0;
};

}  // namespace

SparseRunStats run_sparse_allreduce(
    const std::vector<tensor::CooTensor>& inputs, const FabricConfig& fabric,
    std::size_t pairs_per_block, std::size_t n_aggregators) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  if (n_aggregators == 0) throw std::invalid_argument("need an aggregator");
  const std::size_t n_workers = inputs.size();
  const std::size_t dim = inputs.front().dim;
  sim::Simulator simulator;
  net::Network network(simulator, fabric.one_way_latency, fabric.seed);

  // Slice each worker's input into per-aggregator key ranges; Algorithm 3
  // runs independently (and concurrently) per range.
  std::vector<std::vector<tensor::CooTensor>> slices(n_aggregators);
  for (std::size_t a = 0; a < n_aggregators; ++a) {
    const auto lo = static_cast<std::int32_t>(dim * a / n_aggregators);
    const auto hi = static_cast<std::int32_t>(dim * (a + 1) / n_aggregators);
    slices[a].reserve(n_workers);
    for (const auto& input : inputs) {
      tensor::CooTensor s;
      s.dim = dim;
      const auto begin =
          std::lower_bound(input.keys.begin(), input.keys.end(), lo);
      const auto end =
          std::lower_bound(input.keys.begin(), input.keys.end(), hi);
      s.keys.assign(begin, end);
      s.values.assign(input.values.begin() + (begin - input.keys.begin()),
                      input.values.begin() + (end - input.keys.begin()));
      slices[a].push_back(std::move(s));
    }
  }

  std::vector<std::unique_ptr<KvAggregator>> aggs;
  std::vector<net::EndpointId> agg_eps;
  for (std::size_t a = 0; a < n_aggregators; ++a) {
    aggs.push_back(std::make_unique<KvAggregator>(network, n_workers));
    const net::NicId nic = network.add_nic(
        {fabric.aggregator_bandwidth_bps, fabric.aggregator_bandwidth_bps});
    agg_eps.push_back(network.attach(aggs.back().get(), nic));
  }

  // One protocol endpoint per (worker, range); endpoints of the same worker
  // share that worker's NIC.
  std::vector<std::unique_ptr<KvWorker>> workers;
  std::vector<std::vector<net::EndpointId>> worker_eps(n_aggregators);
  std::vector<net::NicId> worker_nics;
  for (std::size_t w = 0; w < n_workers; ++w) {
    worker_nics.push_back(network.add_nic(
        {fabric.worker_bandwidth_bps, fabric.worker_bandwidth_bps}));
  }
  for (std::size_t a = 0; a < n_aggregators; ++a) {
    for (std::size_t w = 0; w < n_workers; ++w) {
      workers.push_back(std::make_unique<KvWorker>(
          network, static_cast<std::uint32_t>(w), slices[a][w],
          pairs_per_block));
      const net::EndpointId ep =
          network.attach(workers.back().get(), worker_nics[w]);
      worker_eps[a].push_back(ep);
      workers.back()->bind(ep, agg_eps[a]);
    }
    aggs[a]->bind(agg_eps[a], worker_eps[a]);
  }
  for (auto& w : workers) w->start();
  simulator.run();

  SparseRunStats stats;
  for (auto& w : workers) {
    if (!w->done()) throw std::logic_error("sparse allreduce stalled");
    stats.completion_time = std::max(stats.completion_time, w->finish_time());
    stats.pair_bytes_sent += w->pair_bytes_sent();
  }
  // Worker 0's per-range results, concatenated in range order, form the
  // reduced tensor (ranges are contiguous and internally sorted).
  stats.result.dim = dim;
  for (std::size_t a = 0; a < n_aggregators; ++a) {
    const tensor::CooTensor& r = workers[a * n_workers]->result();
    stats.result.keys.insert(stats.result.keys.end(), r.keys.begin(),
                             r.keys.end());
    stats.result.values.insert(stats.result.values.end(), r.values.begin(),
                               r.values.end());
    stats.rounds += aggs[a]->rounds();
  }
  return stats;
}

}  // namespace omr::core
