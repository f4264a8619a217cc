#include "baselines/parameter_server.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "baselines/ring.h"

namespace omr::baselines {

namespace {

using detail::FlatFabric;
using detail::FlatNode;

/// Wire a parameter server onto `fabric` and run it: workers on NICs of
/// their own, server s on worker s % N's NIC when colocated and on a NIC of
/// its own otherwise. Only the workers finish, and only their NICs count
/// toward the wire bytes.
template <typename Worker, typename Server>
BaselineStats run_ps(FlatFabric& fabric,
                     const std::vector<std::unique_ptr<Worker>>& workers,
                     const std::vector<std::unique_ptr<Server>>& servers,
                     bool colocated, const std::string& what) {
  std::vector<net::EndpointId> worker_eps;
  for (const auto& w : workers) worker_eps.push_back(fabric.attach(*w));
  std::vector<net::EndpointId> server_eps;
  for (std::size_t s = 0; s < servers.size(); ++s) {
    server_eps.push_back(
        colocated ? fabric.attach(*servers[s],
                                  fabric.network().nic_of(
                                      worker_eps[s % workers.size()]))
                  : fabric.attach(*servers[s]));
    servers[s]->bind(worker_eps);
  }
  for (const auto& w : workers) w->start(server_eps);
  return fabric.run(workers, what);
}

// ---------------------------------------------------------------------------
// Dense PS
// ---------------------------------------------------------------------------

/// A chunk of dense values at `offset`: a worker's push or a server's
/// reduced pull.
struct DenseChunk final : net::Message {
  std::size_t offset = 0;
  std::vector<float> data;
  std::size_t wire_bytes() const override {
    return detail::kHeaderBytes + data.size() * 4;
  }
};

/// Sums its shard [lo, hi) chunk by chunk: chunk c covers
/// [lo + c*chunk_elements, ...), and is pushed back once all N workers'
/// copies have been added (in arrival order).
class PsServer final : public FlatNode {
 public:
  PsServer(net::Network& net, const BaselineConfig& cfg, std::size_t n_workers,
           std::size_t lo, std::size_t hi)
      : FlatNode(net), chunk_elements_(cfg.chunk_elements),
        n_workers_(n_workers), lo_(lo),
        chunks_((hi - lo + chunk_elements_ - 1) / chunk_elements_) {}
  void bind(std::vector<net::EndpointId> workers) {
    workers_ = std::move(workers);
  }
  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* p = net::message_cast<DenseChunk>(msg.get());
    if (p == nullptr) throw std::logic_error("unexpected PS message");
    Chunk& c = chunks_[(p->offset - lo_) / chunk_elements_];
    if (c.acc.empty()) c.acc.assign(p->data.size(), 0.0f);
    for (std::size_t i = 0; i < p->data.size(); ++i) c.acc[i] += p->data[i];
    if (++c.count == n_workers_) {
      auto r = std::make_shared<DenseChunk>();
      r->offset = p->offset;
      r->data = std::move(c.acc);
      net::MessagePtr shared = r;
      for (net::EndpointId w : workers_) net_.send(self_, w, shared);
    }
  }

 private:
  struct Chunk {
    std::vector<float> acc;
    std::size_t count = 0;
  };
  std::size_t chunk_elements_;
  std::size_t n_workers_;
  std::vector<net::EndpointId> workers_;
  std::size_t lo_;
  std::vector<Chunk> chunks_;
};

class PsWorker final : public FlatNode {
 public:
  PsWorker(net::Network& net, const BaselineConfig& cfg,
           tensor::DenseTensor& tensor)
      : FlatNode(net), chunk_elements_(cfg.chunk_elements), tensor_(tensor) {}
  void start(const std::vector<net::EndpointId>& servers) {
    const std::size_t n = tensor_.size();
    const std::size_t k = servers.size();
    remaining_ = n;
    for (std::size_t s = 0; s < k; ++s) {
      const std::size_t lo = n * s / k;
      const std::size_t hi = n * (s + 1) / k;
      for (std::size_t off = lo; off < hi; off += chunk_elements_) {
        const std::size_t end = std::min(off + chunk_elements_, hi);
        auto m = std::make_shared<DenseChunk>();
        m->offset = off;
        m->data.assign(
            tensor_.values().begin() + static_cast<std::ptrdiff_t>(off),
            tensor_.values().begin() + static_cast<std::ptrdiff_t>(end));
        net_.send(self_, servers[s], std::move(m));
      }
    }
    if (remaining_ == 0) finish();
  }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* r = net::message_cast<DenseChunk>(msg.get());
    if (r == nullptr) throw std::logic_error("unexpected PS message");
    std::copy(r->data.begin(), r->data.end(),
              tensor_.values().begin() +
                  static_cast<std::ptrdiff_t>(r->offset));
    remaining_ -= r->data.size();
    if (remaining_ == 0) finish();
  }

 private:
  std::size_t chunk_elements_;
  tensor::DenseTensor& tensor_;
  std::size_t remaining_ = 0;
};

}  // namespace

BaselineStats detail::ps_dense_allreduce(
    std::vector<tensor::DenseTensor>& tensors, const BaselineConfig& cfg,
    std::size_t n_servers, bool colocated) {
  if (tensors.empty()) throw std::invalid_argument("no workers");
  if (n_servers == 0) throw std::invalid_argument("need a server");
  const std::size_t n = tensors.size();
  const std::size_t size = tensors.front().size();
  for (const auto& t : tensors) {
    if (t.size() != size) throw std::invalid_argument("tensor size mismatch");
  }
  FlatFabric fabric(cfg);
  std::vector<std::unique_ptr<PsWorker>> workers;
  for (auto& t : tensors) {
    workers.push_back(std::make_unique<PsWorker>(fabric.network(), cfg, t));
  }
  std::vector<std::unique_ptr<PsServer>> servers;
  for (std::size_t s = 0; s < n_servers; ++s) {
    servers.push_back(std::make_unique<PsServer>(
        fabric.network(), cfg, n, size * s / n_servers,
        size * (s + 1) / n_servers));
  }
  return run_ps(fabric, workers, servers, colocated, "PS allreduce");
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
  std::size_t wire_bytes() const override {
    return detail::kHeaderBytes + count * 8;
  }
};

/// A chunk of a server's merged range on its way back: only its size
/// travels (the merged run stays with the server).
struct SparsePull final : net::Message {
  bool last_of_flow = false;
  std::size_t count = 0;
  std::size_t wire_bytes() const override {
    return detail::kHeaderBytes + count * 8;
  }
};

/// Owns the key range [lo, hi): sums pushed entries in arrival order, and
/// once every worker's flow has ended pushes the sorted merged range back
/// to every worker, chunked.
class SparsePsServer final : public FlatNode {
 public:
  SparsePsServer(net::Network& net, const BaselineConfig& cfg,
                 std::size_t n_workers, std::int64_t lo, std::int64_t hi)
      : FlatNode(net), chunk_elements_(cfg.chunk_elements),
        n_workers_(n_workers), acc_(lo, hi) {}
  void bind(std::vector<net::EndpointId> workers) {
    workers_ = std::move(workers);
  }
  const tensor::CooTensor& merged() const { return merged_; }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* p = net::message_cast<SparsePush>(msg.get());
    if (p == nullptr) throw std::logic_error("unexpected sparse PS message");
    acc_.add(p->keys, p->values, p->count);
    if (p->last_of_flow && ++flows_done_ == n_workers_) {
      acc_.emit(merged_);
      const std::size_t total = merged_.nnz();
      std::size_t off = 0;
      do {
        const std::size_t end = std::min(off + chunk_elements_, total);
        auto r = std::make_shared<SparsePull>();
        r->count = end - off;
        r->last_of_flow = end >= total;
        net::MessagePtr shared = r;
        for (net::EndpointId w : workers_) net_.send(self_, w, shared);
        off = end;
      } while (off < total);
    }
  }

 private:
  std::size_t chunk_elements_;
  std::size_t n_workers_;
  std::vector<net::EndpointId> workers_;
  tensor::SparseRangeAccumulator acc_;
  tensor::CooTensor merged_;
  std::size_t flows_done_ = 0;
};

class SparsePsWorker final : public FlatNode {
 public:
  SparsePsWorker(net::Network& net, const BaselineConfig& cfg,
                 const tensor::CooTensor& input, std::size_t dim)
      : FlatNode(net), chunk_elements_(cfg.chunk_elements), input_(input),
        dim_(dim) {}
  void start(const std::vector<net::EndpointId>& servers) {
    const std::size_t k = servers.size();
    flows_remaining_ = k;
    for (std::size_t s = 0; s < k; ++s) {
      const auto [b, e] = tensor::coo_key_range(
          input_, static_cast<std::int32_t>(dim_ * s / k),
          static_cast<std::int32_t>(dim_ * (s + 1) / k));
      std::size_t off = b;
      do {
        const std::size_t stop = std::min(off + chunk_elements_, e);
        auto m = std::make_shared<SparsePush>();
        m->keys = input_.keys.data() + off;
        m->values = input_.values.data() + off;
        m->count = stop - off;
        m->last_of_flow = stop >= e;
        net_.send(self_, servers[s], std::move(m));
        off = stop;
      } while (off < e);
    }
  }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* r = net::message_cast<SparsePull>(msg.get());
    if (r == nullptr) throw std::logic_error("unexpected sparse PS message");
    if (r->last_of_flow && --flows_remaining_ == 0) finish();
  }

 private:
  std::size_t chunk_elements_;
  const tensor::CooTensor& input_;
  std::size_t dim_;
  std::size_t flows_remaining_ = 0;
};

}  // namespace

BaselineStats detail::ps_sparse_allreduce(
    const std::vector<tensor::CooTensor>& inputs, tensor::CooTensor& result,
    const BaselineConfig& cfg, std::size_t n_servers, bool colocated) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  if (n_servers == 0) throw std::invalid_argument("need a server");
  const std::size_t n = inputs.size();
  const std::size_t dim = inputs.front().dim;
  FlatFabric fabric(cfg);
  std::vector<std::unique_ptr<SparsePsWorker>> workers;
  for (const auto& input : inputs) {
    workers.push_back(
        std::make_unique<SparsePsWorker>(fabric.network(), cfg, input, dim));
  }
  std::vector<std::unique_ptr<SparsePsServer>> servers;
  for (std::size_t s = 0; s < n_servers; ++s) {
    servers.push_back(std::make_unique<SparsePsServer>(
        fabric.network(), cfg, n,
        static_cast<std::int32_t>(dim * s / n_servers),
        static_cast<std::int32_t>(dim * (s + 1) / n_servers)));
  }
  const BaselineStats stats =
      run_ps(fabric, workers, servers, colocated, "sparse PS");
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
  // Oracle: cost both paths, report the better time (§6.1.2). The ring's
  // cost does not depend on the data, so only its schedule is simulated.
  tensor::CooTensor merged;
  BaselineStats ps = ps_sparse_allreduce(tensor::dense_to_coo(dense), merged,
                                         cfg, dense.size(),
                                         /*colocated=*/false);
  BaselineStats ring =
      ring_allreduce_schedule(dense.front().size(), dense.size(), cfg);
  return ring.completion_time <= ps.completion_time ? ring : ps;
}

}  // namespace omr::baselines
