#include "baselines/ring.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "net/message.h"
#include "net/network.h"
#include "sim/event_queue.h"

namespace omr::baselines {

namespace {

/// A chunk of a tensor segment travelling around the ring.
struct ChunkMsg final : net::Message {
  int step = 0;
  std::size_t offset = 0;  // element offset into the tensor
  std::vector<float> data;
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override {
    return header_bytes + data.size() * 4;
  }
};

class RingNode final : public net::Endpoint {
 public:
  RingNode(net::Network& net, const BaselineConfig& cfg, int rank, int n,
           tensor::DenseTensor& tensor)
      : net_(net), sim_(net.simulator()), cfg_(cfg), rank_(rank), n_(n),
        tensor_(tensor) {}

  void bind(net::EndpointId self, net::EndpointId successor) {
    self_ = self;
    succ_ = successor;
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
    const auto* c = dynamic_cast<const ChunkMsg*>(msg.get());
    if (c == nullptr) throw std::logic_error("unexpected ring message");
    const bool reduce_phase = c->step < n_ - 1;
    float* dst = tensor_.values().data() + c->offset;
    if (reduce_phase) {
      for (std::size_t i = 0; i < c->data.size(); ++i) dst[i] += c->data[i];
    } else {
      std::copy(c->data.begin(), c->data.end(), dst);
    }
    recv_remaining_ -= c->data.size();
    if (recv_remaining_ == 0) {
      step_ += 1;
      if (step_ == 2 * (n_ - 1)) {
        done_ = true;
        finish_ = host_cost_adjusted_now(c->wire_bytes());
        return;
      }
      send_step(step_);
    }
  }

 private:
  /// Gloo-style CPU stacks pay a host copy per received byte; RDMA-style
  /// stacks do not. Charged as a completion-time adjustment at the end of
  /// the final step (receive path is the critical path).
  sim::Time host_cost_adjusted_now(std::size_t /*bytes*/) const {
    if (cfg_.host_copy_bandwidth_Bps <= 0) return sim_.now();
    const double total_rx =
        static_cast<double>(tensor_.size()) * 4.0 * 2.0 *
        (static_cast<double>(n_ - 1) / n_);
    return sim_.now() +
           sim::from_seconds(total_rx / cfg_.host_copy_bandwidth_Bps * 0.5);
  }

  std::pair<std::size_t, std::size_t> segment_range(int seg) const {
    const std::size_t n = tensor_.size();
    const auto u = static_cast<std::size_t>(n_);
    const auto s = static_cast<std::size_t>(seg);
    return {n * s / u, n * (s + 1) / u};
  }

  void send_step(int step) {
    // Reduce-scatter step s sends segment (rank - s) mod N; allgather step
    // s (s >= N-1) sends segment (rank + 1 - (s - (N-1))) mod N, which is
    // the segment received (fully reduced) in the previous step.
    int seg;
    if (step < n_ - 1) {
      seg = ((rank_ - step) % n_ + n_) % n_;
    } else {
      seg = ((rank_ + 1 - (step - (n_ - 1))) % n_ + n_) % n_;
    }
    auto [lo, hi] = segment_range(seg);
    // Track what the successor must receive to finish this step.
    recv_remaining_ = 0;
    {
      int rseg;
      if (step < n_ - 1) {
        rseg = ((rank_ - step - 1) % n_ + n_) % n_;
      } else {
        rseg = ((rank_ - (step - (n_ - 1))) % n_ + n_) % n_;
      }
      auto [rlo, rhi] = segment_range(rseg);
      recv_remaining_ = rhi - rlo;
    }
    for (std::size_t off = lo; off < hi; off += cfg_.chunk_elements) {
      const std::size_t end = std::min(off + cfg_.chunk_elements, hi);
      auto m = std::make_shared<ChunkMsg>();
      m->step = step;
      m->offset = off;
      m->header_bytes = cfg_.header_bytes;
      m->data.assign(tensor_.values().begin() + static_cast<std::ptrdiff_t>(off),
                     tensor_.values().begin() + static_cast<std::ptrdiff_t>(end));
      net_.send(self_, succ_, std::move(m));
    }
    if (recv_remaining_ == 0) {
      // Degenerate empty segment: advance immediately.
      step_ += 1;
      if (step_ == 2 * (n_ - 1)) {
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
  tensor::DenseTensor& tensor_;
  net::EndpointId self_ = -1;
  net::EndpointId succ_ = -1;
  int step_ = 0;
  std::size_t recv_remaining_ = 0;
  bool done_ = false;
  sim::Time finish_ = 0;
};

}  // namespace

BaselineStats detail::ring_allreduce(std::vector<tensor::DenseTensor>& tensors,
                                     const BaselineConfig& cfg) {
  if (tensors.empty()) throw std::invalid_argument("no workers");
  const int n = static_cast<int>(tensors.size());

  sim::Simulator simulator;
  net::Network network(simulator, cfg.one_way_latency, cfg.seed);
  std::vector<std::unique_ptr<RingNode>> nodes;
  std::vector<net::EndpointId> eps;
  for (int r = 0; r < n; ++r) {
    nodes.push_back(std::make_unique<RingNode>(network, cfg, r, n,
                                               tensors[static_cast<size_t>(r)]));
    eps.push_back(network.attach(nodes.back().get(),
                                 network.add_nic({cfg.bandwidth_bps,
                                                  cfg.bandwidth_bps})));
  }
  for (int r = 0; r < n; ++r) {
    nodes[static_cast<size_t>(r)]->bind(
        eps[static_cast<size_t>(r)],
        eps[static_cast<size_t>((r + 1) % n)]);
  }
  for (auto& node : nodes) node->start();
  simulator.run();

  BaselineStats stats;
  for (int r = 0; r < n; ++r) {
    if (!nodes[static_cast<size_t>(r)]->done()) {
      throw std::logic_error("ring allreduce stalled");
    }
    stats.completion_time = std::max(
        stats.completion_time, nodes[static_cast<size_t>(r)]->finish_time());
    stats.total_tx_bytes +=
        network.nic_stats(network.nic_of(eps[static_cast<size_t>(r)])).tx_bytes;
  }
  return stats;
}

namespace {

struct RdMsg final : net::Message {
  int step = 0;
  std::vector<float> data;
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override {
    return header_bytes + data.size() * 4;
  }
};

class RdNode final : public net::Endpoint {
 public:
  RdNode(net::Network& net, const BaselineConfig& cfg, int rank, int n,
         tensor::DenseTensor& tensor)
      : net_(net), sim_(net.simulator()), cfg_(cfg), rank_(rank), n_(n),
        tensor_(tensor) {}
  void bind(net::EndpointId self, std::vector<net::EndpointId> all) {
    self_ = self;
    all_ = std::move(all);
  }
  void start() {
    if (n_ == 1) {
      done_ = true;
      return;
    }
    send_step();
  }
  bool done() const { return done_; }
  sim::Time finish_time() const { return finish_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* m = dynamic_cast<const RdMsg*>(msg.get());
    if (m == nullptr) throw std::logic_error("unexpected rd message");
    // A fast partner may deliver a later step's data before the current
    // step's partner does; buffer by step and apply strictly in order.
    pending_[m->step] = m->data;
    drain();
  }

 private:
  void drain() {
    for (auto it = pending_.find(step_); it != pending_.end();
         it = pending_.find(step_)) {
      const std::vector<float>& d = it->second;
      for (std::size_t i = 0; i < d.size(); ++i) tensor_[i] += d[i];
      pending_.erase(it);
      ++step_;
      if ((1 << step_) >= n_) {
        done_ = true;
        finish_ = sim_.now();
        return;
      }
      send_step();
    }
  }
  void send_step() {
    const int partner = rank_ ^ (1 << step_);
    auto m = std::make_shared<RdMsg>();
    m->step = step_;
    m->header_bytes = cfg_.header_bytes;
    m->data = tensor_.values();
    net_.send(self_, all_[static_cast<size_t>(partner)], std::move(m));
  }

  net::Network& net_;
  sim::Simulator& sim_;
  BaselineConfig cfg_;
  int rank_;
  int n_;
  tensor::DenseTensor& tensor_;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> all_;
  int step_ = 0;
  std::map<int, std::vector<float>> pending_;
  bool done_ = false;
  sim::Time finish_ = 0;
};

}  // namespace

BaselineStats detail::recursive_doubling_allreduce(
    std::vector<tensor::DenseTensor>& tensors, const BaselineConfig& cfg) {
  const int n = static_cast<int>(tensors.size());
  if (n == 0) throw std::invalid_argument("no workers");
  if ((n & (n - 1)) != 0) {
    throw std::invalid_argument("recursive doubling needs power-of-two N");
  }
  sim::Simulator simulator;
  net::Network network(simulator, cfg.one_way_latency, cfg.seed);
  std::vector<std::unique_ptr<RdNode>> nodes;
  std::vector<net::EndpointId> eps;
  for (int r = 0; r < n; ++r) {
    nodes.push_back(std::make_unique<RdNode>(network, cfg, r, n,
                                             tensors[static_cast<size_t>(r)]));
    eps.push_back(network.attach(nodes.back().get(),
                                 network.add_nic({cfg.bandwidth_bps,
                                                  cfg.bandwidth_bps})));
  }
  for (int r = 0; r < n; ++r) nodes[static_cast<size_t>(r)]->bind(
      eps[static_cast<size_t>(r)], eps);
  for (auto& node : nodes) node->start();
  simulator.run();

  BaselineStats stats;
  for (auto& node : nodes) {
    if (!node->done()) throw std::logic_error("rd allreduce stalled");
    stats.completion_time = std::max(stats.completion_time,
                                     node->finish_time());
  }
  for (auto ep : eps) {
    stats.total_tx_bytes += network.nic_stats(network.nic_of(ep)).tx_bytes;
  }
  return stats;
}

}  // namespace omr::baselines
