#include "baselines/parameter_server.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "baselines/ring.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/event_queue.h"

namespace omr::baselines {

namespace {

// ---------------------------------------------------------------------------
// Dense PS
// ---------------------------------------------------------------------------

struct PushMsg final : net::Message {
  std::size_t offset = 0;
  std::uint32_t wid = 0;
  std::vector<float> data;
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override {
    return header_bytes + data.size() * 4;
  }
};

struct PullMsg final : net::Message {
  std::size_t offset = 0;
  std::vector<float> data;
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override {
    return header_bytes + data.size() * 4;
  }
};

/// Sums its shard [lo, hi) chunk by chunk: chunk c covers
/// [lo + c*chunk_elements, ...), and is pushed back once all N workers'
/// copies have been added (in arrival order).
class PsServer final : public net::Endpoint {
 public:
  PsServer(net::Network& net, const BaselineConfig& cfg, std::size_t n_workers,
           std::size_t lo, std::size_t hi)
      : net_(net), cfg_(cfg), n_workers_(n_workers), lo_(lo),
        chunks_((hi - lo + cfg.chunk_elements - 1) / cfg.chunk_elements) {}
  void bind(net::EndpointId self, std::vector<net::EndpointId> workers) {
    self_ = self;
    workers_ = std::move(workers);
  }
  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* p = dynamic_cast<const PushMsg*>(msg.get());
    if (p == nullptr) throw std::logic_error("unexpected PS message");
    Chunk& c = chunks_[(p->offset - lo_) / cfg_.chunk_elements];
    if (c.acc.empty()) c.acc.assign(p->data.size(), 0.0f);
    for (std::size_t i = 0; i < p->data.size(); ++i) c.acc[i] += p->data[i];
    if (++c.count == n_workers_) {
      auto r = std::make_shared<PullMsg>();
      r->offset = p->offset;
      r->data = std::move(c.acc);
      r->header_bytes = cfg_.header_bytes;
      net::MessagePtr shared = r;
      for (net::EndpointId w : workers_) net_.send(self_, w, shared);
    }
  }

 private:
  struct Chunk {
    std::vector<float> acc;
    std::size_t count = 0;
  };
  net::Network& net_;
  BaselineConfig cfg_;
  std::size_t n_workers_;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> workers_;
  std::size_t lo_;
  std::vector<Chunk> chunks_;
};

class PsWorker final : public net::Endpoint {
 public:
  PsWorker(net::Network& net, const BaselineConfig& cfg, std::uint32_t wid,
           tensor::DenseTensor& tensor)
      : net_(net), sim_(net.simulator()), cfg_(cfg), wid_(wid),
        tensor_(tensor) {}
  void bind(net::EndpointId self, std::vector<net::EndpointId> servers) {
    self_ = self;
    servers_ = std::move(servers);
  }
  void start() {
    const std::size_t n = tensor_.size();
    const std::size_t k = servers_.size();
    remaining_ = n;
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t lo = n * s / k;
      const std::size_t hi = n * (s + 1) / k;
      for (std::size_t off = lo; off < hi; off += cfg_.chunk_elements) {
        const std::size_t end = std::min(off + cfg_.chunk_elements, hi);
        auto m = std::make_shared<PushMsg>();
        m->offset = off;
        m->wid = wid_;
        m->header_bytes = cfg_.header_bytes;
        m->data.assign(
            tensor_.values().begin() + static_cast<std::ptrdiff_t>(off),
            tensor_.values().begin() + static_cast<std::ptrdiff_t>(end));
        net_.send(self_, servers_[s], std::move(m));
      }
    }
    if (remaining_ == 0) {
      done_ = true;
      finish_ = sim_.now();
    }
  }
  bool done() const { return done_; }
  sim::Time finish_time() const { return finish_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* r = dynamic_cast<const PullMsg*>(msg.get());
    if (r == nullptr) throw std::logic_error("unexpected PS message");
    std::copy(r->data.begin(), r->data.end(),
              tensor_.values().begin() +
                  static_cast<std::ptrdiff_t>(r->offset));
    remaining_ -= r->data.size();
    if (remaining_ == 0) {
      done_ = true;
      finish_ = sim_.now();
    }
  }

 private:
  net::Network& net_;
  sim::Simulator& sim_;
  BaselineConfig cfg_;
  std::uint32_t wid_;
  tensor::DenseTensor& tensor_;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> servers_;
  std::size_t remaining_ = 0;
  bool done_ = false;
  sim::Time finish_ = 0;
};

}  // namespace

BaselineStats detail::ps_dense_allreduce(
    std::vector<tensor::DenseTensor>& tensors,
                                 const BaselineConfig& cfg,
                                 std::size_t n_servers, bool colocated) {
  if (tensors.empty()) throw std::invalid_argument("no workers");
  if (n_servers == 0) throw std::invalid_argument("need a server");
  const std::size_t n = tensors.size();
  const std::size_t size = tensors.front().size();
  for (const auto& t : tensors) {
    if (t.size() != size) throw std::invalid_argument("tensor size mismatch");
  }

  sim::Simulator simulator;
  net::Network network(simulator, cfg.one_way_latency, cfg.seed);
  std::vector<net::NicId> worker_nics;
  for (std::size_t w = 0; w < n; ++w) {
    worker_nics.push_back(network.add_nic({cfg.bandwidth_bps,
                                           cfg.bandwidth_bps}));
  }
  std::vector<std::unique_ptr<PsWorker>> workers;
  std::vector<net::EndpointId> worker_eps;
  for (std::size_t w = 0; w < n; ++w) {
    workers.push_back(std::make_unique<PsWorker>(
        network, cfg, static_cast<std::uint32_t>(w), tensors[w]));
    worker_eps.push_back(network.attach(workers.back().get(),
                                        worker_nics[w]));
  }
  std::vector<std::unique_ptr<PsServer>> servers;
  std::vector<net::EndpointId> server_eps;
  for (std::size_t s = 0; s < n_servers; ++s) {
    servers.push_back(std::make_unique<PsServer>(
        network, cfg, n, size * s / n_servers, size * (s + 1) / n_servers));
    const net::NicId nic = colocated
                               ? worker_nics[s % n]
                               : network.add_nic({cfg.bandwidth_bps,
                                                  cfg.bandwidth_bps});
    server_eps.push_back(network.attach(servers.back().get(), nic));
    servers.back()->bind(server_eps.back(), worker_eps);
  }
  for (std::size_t w = 0; w < n; ++w) {
    workers[w]->bind(worker_eps[w], server_eps);
    workers[w]->start();
  }
  simulator.run();

  BaselineStats stats;
  for (auto& w : workers) {
    if (!w->done()) throw std::logic_error("PS allreduce stalled");
    stats.completion_time = std::max(stats.completion_time, w->finish_time());
  }
  for (net::NicId nic : worker_nics) {
    stats.total_tx_bytes += network.nic_stats(nic).tx_bytes;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Sparse PS
// ---------------------------------------------------------------------------

namespace {

/// A chunk of one worker's (key, value) entries for one server. The entries
/// stay in the worker's input; the message points at them.
struct SparsePush final : net::Message {
  bool last_of_flow = false;
  const std::int32_t* keys = nullptr;
  const float* values = nullptr;
  std::size_t count = 0;
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override { return header_bytes + count * 8; }
};

/// A chunk of a server's merged range on its way back: only its size
/// travels (the merged run stays with the server).
struct SparsePull final : net::Message {
  bool last_of_flow = false;
  std::size_t count = 0;
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override { return header_bytes + count * 8; }
};

/// Owns the key range [lo, hi): sums pushed entries in arrival order, and
/// once every worker's flow has ended pushes the sorted merged range back
/// to every worker, chunked.
class SparsePsServer final : public net::Endpoint {
 public:
  SparsePsServer(net::Network& net, const BaselineConfig& cfg,
                 std::size_t n_workers, std::int64_t lo, std::int64_t hi)
      : net_(net), cfg_(cfg), n_workers_(n_workers), acc_(lo, hi) {}
  void bind(net::EndpointId self, std::vector<net::EndpointId> workers) {
    self_ = self;
    workers_ = std::move(workers);
  }
  const tensor::CooTensor& merged() const { return merged_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* p = dynamic_cast<const SparsePush*>(msg.get());
    if (p == nullptr) throw std::logic_error("unexpected sparse PS message");
    acc_.add(p->keys, p->values, p->count);
    if (p->last_of_flow && ++flows_done_ == n_workers_) {
      acc_.emit(merged_);
      const std::size_t total = merged_.nnz();
      std::size_t off = 0;
      do {
        const std::size_t end = std::min(off + cfg_.chunk_elements, total);
        auto r = std::make_shared<SparsePull>();
        r->header_bytes = cfg_.header_bytes;
        r->count = end - off;
        r->last_of_flow = end >= total;
        net::MessagePtr shared = r;
        for (net::EndpointId w : workers_) net_.send(self_, w, shared);
        off = end;
      } while (off < total);
    }
  }

 private:
  net::Network& net_;
  const BaselineConfig& cfg_;
  std::size_t n_workers_;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> workers_;
  tensor::SparseRangeAccumulator acc_;
  tensor::CooTensor merged_;
  std::size_t flows_done_ = 0;
};

class SparsePsWorker final : public net::Endpoint {
 public:
  SparsePsWorker(net::Network& net, const BaselineConfig& cfg,
                 const tensor::CooTensor& input, std::size_t dim)
      : net_(net), sim_(net.simulator()), cfg_(cfg), input_(input),
        dim_(dim) {}
  void bind(net::EndpointId self, std::vector<net::EndpointId> servers) {
    self_ = self;
    servers_ = std::move(servers);
    flows_remaining_ = servers_.size();
  }
  void start() {
    const std::size_t k = servers_.size();
    for (std::size_t s = 0; s < k; ++s) {
      const auto [b, e] = tensor::coo_key_range(
          input_, static_cast<std::int32_t>(dim_ * s / k),
          static_cast<std::int32_t>(dim_ * (s + 1) / k));
      std::size_t off = b;
      do {
        const std::size_t stop = std::min(off + cfg_.chunk_elements, e);
        auto m = std::make_shared<SparsePush>();
        m->header_bytes = cfg_.header_bytes;
        m->keys = input_.keys.data() + off;
        m->values = input_.values.data() + off;
        m->count = stop - off;
        m->last_of_flow = stop >= e;
        net_.send(self_, servers_[s], std::move(m));
        off = stop;
      } while (off < e);
    }
  }
  bool done() const { return flows_remaining_ == 0; }
  sim::Time finish_time() const { return finish_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* r = dynamic_cast<const SparsePull*>(msg.get());
    if (r == nullptr) throw std::logic_error("unexpected sparse PS message");
    if (r->last_of_flow && --flows_remaining_ == 0) finish_ = sim_.now();
  }

 private:
  net::Network& net_;
  sim::Simulator& sim_;
  const BaselineConfig& cfg_;
  const tensor::CooTensor& input_;
  std::size_t dim_;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> servers_;
  std::size_t flows_remaining_ = 0;
  sim::Time finish_ = 0;
};

}  // namespace

BaselineStats detail::ps_sparse_allreduce(
    const std::vector<tensor::CooTensor>& inputs,
                                  tensor::CooTensor& result,
                                  const BaselineConfig& cfg,
                                  std::size_t n_servers, bool colocated) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  const std::size_t n = inputs.size();
  const std::size_t dim = inputs.front().dim;

  sim::Simulator simulator;
  net::Network network(simulator, cfg.one_way_latency, cfg.seed);
  std::vector<net::NicId> worker_nics;
  for (std::size_t w = 0; w < n; ++w) {
    worker_nics.push_back(network.add_nic({cfg.bandwidth_bps,
                                           cfg.bandwidth_bps}));
  }
  std::vector<std::unique_ptr<SparsePsWorker>> workers;
  std::vector<net::EndpointId> worker_eps;
  for (std::size_t w = 0; w < n; ++w) {
    workers.push_back(
        std::make_unique<SparsePsWorker>(network, cfg, inputs[w], dim));
    worker_eps.push_back(network.attach(workers.back().get(),
                                        worker_nics[w]));
  }
  std::vector<std::unique_ptr<SparsePsServer>> servers;
  std::vector<net::EndpointId> server_eps;
  for (std::size_t s = 0; s < n_servers; ++s) {
    servers.push_back(std::make_unique<SparsePsServer>(
        network, cfg, n, static_cast<std::int32_t>(dim * s / n_servers),
        static_cast<std::int32_t>(dim * (s + 1) / n_servers)));
    const net::NicId nic = colocated
                               ? worker_nics[s % n]
                               : network.add_nic({cfg.bandwidth_bps,
                                                  cfg.bandwidth_bps});
    server_eps.push_back(network.attach(servers.back().get(), nic));
    servers.back()->bind(server_eps.back(), worker_eps);
  }
  for (std::size_t w = 0; w < n; ++w) {
    workers[w]->bind(worker_eps[w], server_eps);
    workers[w]->start();
  }
  simulator.run();

  BaselineStats stats;
  for (auto& w : workers) {
    if (!w->done()) throw std::logic_error("sparse PS stalled");
    stats.completion_time = std::max(stats.completion_time, w->finish_time());
  }
  for (net::NicId nic : worker_nics) {
    stats.total_tx_bytes += network.nic_stats(nic).tx_bytes;
  }
  // Every worker received each server's merged range; the ranges are
  // disjoint and ascending, so the result is their concatenation.
  result.dim = dim;
  result.keys.clear();
  result.values.clear();
  for (const auto& server : servers) {
    const tensor::CooTensor& run = server->merged();
    result.keys.insert(result.keys.end(), run.keys.begin(), run.keys.end());
    result.values.insert(result.values.end(), run.values.begin(),
                         run.values.end());
  }
  return stats;
}

BaselineStats detail::parallax_allreduce(
    const std::vector<tensor::DenseTensor>& dense,
    const BaselineConfig& cfg) {
  // Oracle: run both paths, report the better time (§6.1.2).
  std::vector<tensor::DenseTensor> ring_copy = dense;
  BaselineStats ring = ring_allreduce(ring_copy, cfg);
  std::vector<tensor::CooTensor> coo;
  coo.reserve(dense.size());
  for (const auto& t : dense) coo.push_back(tensor::dense_to_coo(t));
  tensor::CooTensor merged;
  BaselineStats ps = ps_sparse_allreduce(coo, merged, cfg, dense.size(),
                                         /*colocated=*/false);
  return ring.completion_time <= ps.completion_time ? ring : ps;
}

}  // namespace omr::baselines
