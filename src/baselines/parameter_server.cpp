#include "baselines/parameter_server.h"

#include <algorithm>
#include <map>
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

class PsServer final : public net::Endpoint {
 public:
  PsServer(net::Network& net, const BaselineConfig& cfg, std::size_t n_workers)
      : net_(net), cfg_(cfg), n_workers_(n_workers) {}
  void bind(net::EndpointId self, std::vector<net::EndpointId> workers) {
    self_ = self;
    workers_ = std::move(workers);
  }
  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* p = dynamic_cast<const PushMsg*>(msg.get());
    if (p == nullptr) throw std::logic_error("unexpected PS message");
    Chunk& c = chunks_[p->offset];
    if (c.acc.empty()) c.acc.assign(p->data.size(), 0.0f);
    for (std::size_t i = 0; i < p->data.size(); ++i) c.acc[i] += p->data[i];
    if (++c.count == n_workers_) {
      auto r = std::make_shared<PullMsg>();
      r->offset = p->offset;
      r->data = std::move(c.acc);
      r->header_bytes = cfg_.header_bytes;
      net::MessagePtr shared = r;
      for (net::EndpointId w : workers_) net_.send(self_, w, shared);
      chunks_.erase(p->offset);
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
  std::map<std::size_t, Chunk> chunks_;
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
    servers.push_back(std::make_unique<PsServer>(network, cfg, n));
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

struct SparsePush final : net::Message {
  std::uint32_t wid = 0;
  bool last_of_flow = false;
  std::vector<std::int32_t> keys;
  std::vector<float> values;
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override {
    return header_bytes + keys.size() * 8;
  }
};

struct SparsePull final : net::Message {
  bool last_of_flow = false;
  std::vector<std::int32_t> keys;
  std::vector<float> values;
  std::size_t header_bytes = 64;
  std::size_t wire_bytes() const override {
    return header_bytes + keys.size() * 8;
  }
};

class SparsePsServer final : public net::Endpoint {
 public:
  SparsePsServer(net::Network& net, const BaselineConfig& cfg,
                 std::size_t n_workers)
      : net_(net), cfg_(cfg), n_workers_(n_workers) {}
  void bind(net::EndpointId self, std::vector<net::EndpointId> workers) {
    self_ = self;
    workers_ = std::move(workers);
  }
  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* p = dynamic_cast<const SparsePush*>(msg.get());
    if (p == nullptr) throw std::logic_error("unexpected sparse PS message");
    for (std::size_t i = 0; i < p->keys.size(); ++i) {
      acc_[p->keys[i]] += p->values[i];
    }
    if (p->last_of_flow && ++flows_done_ == n_workers_) {
      // Push the merged range back to every worker, chunked.
      std::vector<std::int32_t> keys;
      std::vector<float> values;
      keys.reserve(acc_.size());
      values.reserve(acc_.size());
      for (const auto& [k, v] : acc_) {
        keys.push_back(k);
        values.push_back(v);
      }
      const std::size_t chunk = cfg_.chunk_elements;
      std::size_t off = 0;
      do {
        const std::size_t end = std::min(off + chunk, keys.size());
        auto r = std::make_shared<SparsePull>();
        r->header_bytes = cfg_.header_bytes;
        r->keys.assign(keys.begin() + static_cast<std::ptrdiff_t>(off),
                       keys.begin() + static_cast<std::ptrdiff_t>(end));
        r->values.assign(values.begin() + static_cast<std::ptrdiff_t>(off),
                         values.begin() + static_cast<std::ptrdiff_t>(end));
        r->last_of_flow = end >= keys.size();
        net::MessagePtr shared = r;
        for (net::EndpointId w : workers_) net_.send(self_, w, shared);
        off = end;
      } while (off < keys.size());
    }
  }

 private:
  net::Network& net_;
  BaselineConfig cfg_;
  std::size_t n_workers_;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> workers_;
  std::map<std::int32_t, float> acc_;
  std::size_t flows_done_ = 0;
};

class SparsePsWorker final : public net::Endpoint {
 public:
  SparsePsWorker(net::Network& net, const BaselineConfig& cfg,
                 std::uint32_t wid, const tensor::CooTensor& input,
                 std::size_t dim)
      : net_(net), sim_(net.simulator()), cfg_(cfg), wid_(wid), input_(input),
        dim_(dim) {
    result_.dim = dim;
  }
  void bind(net::EndpointId self, std::vector<net::EndpointId> servers) {
    self_ = self;
    servers_ = std::move(servers);
    flows_remaining_ = servers_.size();
  }
  void start() {
    const std::size_t k = servers_.size();
    for (std::size_t s = 0; s < k; ++s) {
      const auto lo = static_cast<std::int32_t>(dim_ * s / k);
      const auto hi = static_cast<std::int32_t>(dim_ * (s + 1) / k);
      const auto begin = std::lower_bound(input_.keys.begin(),
                                          input_.keys.end(), lo);
      const auto end = std::lower_bound(input_.keys.begin(),
                                        input_.keys.end(), hi);
      const std::size_t b = static_cast<std::size_t>(begin - input_.keys.begin());
      const std::size_t e = static_cast<std::size_t>(end - input_.keys.begin());
      std::size_t off = b;
      do {
        const std::size_t stop = std::min(off + cfg_.chunk_elements, e);
        auto m = std::make_shared<SparsePush>();
        m->wid = wid_;
        m->header_bytes = cfg_.header_bytes;
        m->keys.assign(input_.keys.begin() + static_cast<std::ptrdiff_t>(off),
                       input_.keys.begin() + static_cast<std::ptrdiff_t>(stop));
        m->values.assign(
            input_.values.begin() + static_cast<std::ptrdiff_t>(off),
            input_.values.begin() + static_cast<std::ptrdiff_t>(stop));
        m->last_of_flow = stop >= e;
        net_.send(self_, servers_[s], std::move(m));
        off = stop;
      } while (off < e);
    }
  }
  bool done() const { return flows_remaining_ == 0; }
  sim::Time finish_time() const { return finish_; }
  const tensor::CooTensor& result() const { return result_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* r = dynamic_cast<const SparsePull*>(msg.get());
    if (r == nullptr) throw std::logic_error("unexpected sparse PS message");
    result_.keys.insert(result_.keys.end(), r->keys.begin(), r->keys.end());
    result_.values.insert(result_.values.end(), r->values.begin(),
                          r->values.end());
    if (r->last_of_flow && --flows_remaining_ == 0) finish_ = sim_.now();
  }

 private:
  net::Network& net_;
  sim::Simulator& sim_;
  BaselineConfig cfg_;
  std::uint32_t wid_;
  const tensor::CooTensor& input_;
  std::size_t dim_;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> servers_;
  std::size_t flows_remaining_ = 0;
  tensor::CooTensor result_;
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
    workers.push_back(std::make_unique<SparsePsWorker>(
        network, cfg, static_cast<std::uint32_t>(w), inputs[w], dim));
    worker_eps.push_back(network.attach(workers.back().get(),
                                        worker_nics[w]));
  }
  std::vector<std::unique_ptr<SparsePsServer>> servers;
  std::vector<net::EndpointId> server_eps;
  for (std::size_t s = 0; s < n_servers; ++s) {
    servers.push_back(std::make_unique<SparsePsServer>(network, cfg, n));
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
  // Worker results collect per-server ranges in arrival order; normalize.
  const tensor::CooTensor& r0 = workers[0]->result();
  std::vector<std::pair<std::int32_t, float>> pairs;
  pairs.reserve(r0.nnz());
  for (std::size_t i = 0; i < r0.nnz(); ++i) {
    pairs.emplace_back(r0.keys[i], r0.values[i]);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  result.dim = dim;
  result.keys.clear();
  result.values.clear();
  for (const auto& [k, v] : pairs) {
    result.keys.push_back(k);
    result.values.push_back(v);
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
