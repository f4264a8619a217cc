#include "core/algorithm.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/bucketing.h"
#include "core/hierarchical.h"
#include "core/run_context.h"
#include "core/sparse_kv.h"
#include "tensor/coo.h"

namespace omr::core {

double CollectiveAlgorithm::verify_error(
    const tensor::DenseTensor& result,
    const tensor::DenseTensor& reference) const {
  return tensor::max_abs_diff(result, reference);
}

double CollectiveAlgorithm::verify_tolerance(const tensor::DenseTensor&,
                                             std::size_t n_workers) const {
  return 1e-4 * static_cast<double>(n_workers);
}

struct CollectiveRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<CollectiveAlgorithm>> algos;
};

CollectiveRegistry::CollectiveRegistry() : impl_(std::make_unique<Impl>()) {}
CollectiveRegistry::~CollectiveRegistry() = default;

void CollectiveRegistry::register_algorithm(
    std::unique_ptr<CollectiveAlgorithm> algo) {
  const std::string name = algo->name();
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto [it, inserted] = impl_->algos.emplace(name, std::move(algo));
  if (!inserted) {
    throw std::invalid_argument("collective algorithm '" + name +
                                "' is already registered");
  }
}

bool CollectiveRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->algos.count(name) != 0;
}

CollectiveAlgorithm& CollectiveRegistry::at(const std::string& name) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->algos.find(name);
  if (it == impl_->algos.end()) {
    std::ostringstream msg;
    msg << "unknown collective algorithm '" << name << "'; registered:";
    for (const auto& [key, unused] : impl_->algos) msg << " " << key;
    throw std::invalid_argument(msg.str());
  }
  return *it->second;
}

std::vector<std::string> CollectiveRegistry::names() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> out;
  out.reserve(impl_->algos.size());
  for (const auto& [key, unused] : impl_->algos) out.push_back(key);
  return out;  // std::map iteration is already sorted
}

namespace {

/// The first thing (cfg, cluster) asks for that `caps` cannot simulate,
/// worded as the tail of validate_capabilities' message; nullptr when
/// `caps` covers everything. The one statement of the capability rule.
const char* capability_gap(const AlgoCapabilities& caps, const Config& cfg,
                           const ClusterSpec& cluster) {
  if (cfg.op != ReduceOp::kSum && !caps.supports_min_max) {
    return "supports ReduceOp::kSum only";
  }
  if ((cluster.fabric.lossy() || cluster.topology.spine_lossy()) &&
      !caps.supports_loss) {
    return "cannot simulate a lossy fabric";
  }
  if (cluster.topology.two_tier() && !caps.supports_topology) {
    return "runs on the ideal switch only (no two-tier topology support)";
  }
  if (cluster.faults.enabled() && !caps.supports_faults) {
    return "does not support fault injection";
  }
  if (cfg.codec.enabled() && !caps.supports_codec) {
    return "does not support inline wire codecs";
  }
  return nullptr;
}

}  // namespace

bool capabilities_allow(const AlgoCapabilities& caps, const Config& cfg,
                        const ClusterSpec& cluster) {
  return capability_gap(caps, cfg, cluster) == nullptr;
}

void validate_capabilities(const AlgoCapabilities& caps, const Config& cfg,
                           const ClusterSpec& cluster,
                           const std::string& name) {
  if (const char* gap = capability_gap(caps, cfg, cluster)) {
    throw std::invalid_argument("algorithm '" + name + "' " + gap);
  }
}

namespace {

/// OmniReduce proper: the discrete-event engine (Algorithm 1 on reliable
/// fabrics, Algorithm 2 with acks/timers under loss).
class OmniReduceAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "omnireduce"; }
  AlgoCapabilities capabilities() const override {
    AlgoCapabilities c;
    c.sparse_aware = true;
    c.supports_min_max = true;
    c.supports_loss = true;
    c.supports_topology = true;
    c.supports_faults = true;
    c.supports_codec = true;
    return c;
  }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
               const ClusterSpec& cluster) override {
    return run_allreduce(tensors, cfg, cluster, /*verify=*/false);
  }
};

/// SwitchML*: the engine with sparsity skipping disabled and no GDR — the
/// paper's server-based dense streaming aggregator.
class SwitchMlAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "switchml"; }
  AlgoCapabilities capabilities() const override {
    AlgoCapabilities c;
    c.supports_min_max = true;
    c.supports_loss = true;
    c.supports_topology = true;
    c.supports_faults = true;
    c.supports_codec = true;
    return c;
  }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
               const ClusterSpec& cluster) override {
    Config dense = cfg;
    dense.dense_mode = true;
    ClusterSpec spec = cluster;
    spec.device.gdr = false;
    return run_allreduce(tensors, dense, spec, /*verify=*/false);
  }
};

/// DDP-style bucketed OmniReduce: each tensor is its own single-entry
/// bucket here; the bucketing entry point remains for multi-tensor fusion.
class BucketedAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "omnireduce_bucketed"; }
  AlgoCapabilities capabilities() const override {
    AlgoCapabilities c;
    c.sparse_aware = true;
    c.supports_min_max = true;
    c.supports_loss = true;
    c.supports_topology = true;
    c.supports_faults = true;
    c.supports_codec = true;
    return c;
  }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
               const ClusterSpec& cluster) override {
    std::vector<std::vector<tensor::DenseTensor>> buckets(tensors.size());
    for (std::size_t w = 0; w < tensors.size(); ++w) {
      buckets[w].push_back(std::move(tensors[w]));
    }
    RunStats stats = run_allreduce_bucketed(buckets, cfg, cluster,
                                            /*verify=*/false);
    for (std::size_t w = 0; w < tensors.size(); ++w) {
      tensors[w] = std::move(buckets[w][0]);
    }
    return stats;
  }
};

/// Algorithm 3: the sparse (key, value) block format. Lossless fabrics
/// only (matching the paper's scope) and sum-only.
class SparseKvAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "omnireduce_kv"; }
  AlgoCapabilities capabilities() const override {
    AlgoCapabilities c;
    c.sparse_aware = true;
    return c;
  }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
               const ClusterSpec& cluster) override {
    const SparseRunStats kv = tensor::reduce_as_coo(
        tensors, [&](const auto& inputs, tensor::CooTensor& merged) {
          SparseRunStats r = run_sparse_allreduce(
              inputs, cluster.fabric, /*pairs_per_block=*/cfg.packet_elements,
              cfg.header_bytes, cluster.n_aggregator_nodes);
          merged = std::move(r.result);
          return r;
        });
    RunStats stats;
    stats.completion_time = kv.completion_time;
    stats.worker_finish.assign(tensors.size(), kv.completion_time);
    stats.worker_data_bytes.assign(
        tensors.size(), kv.pair_bytes_sent / std::max<std::size_t>(
                                                 1, tensors.size()));
    stats.total_messages = kv.total_messages;
    stats.rounds = kv.rounds;
    return stats;
  }
};

/// Two-layer (NVLink + inter-server) aggregation; with a two-tier fabric
/// the rack-aware third layer is enabled automatically.
class HierarchicalAlgo final : public CollectiveAlgorithm {
 public:
  std::string name() const override { return "hierarchical"; }
  AlgoCapabilities capabilities() const override {
    AlgoCapabilities c;
    c.sparse_aware = true;
    c.supports_loss = true;
    c.supports_topology = true;
    return c;
  }
  RunStats run(std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
               const ClusterSpec& cluster) override {
    std::vector<std::vector<tensor::DenseTensor>> grads(tensors.size());
    for (std::size_t w = 0; w < tensors.size(); ++w) {
      grads[w].push_back(std::move(tensors[w]));
    }
    HierarchicalConfig hier;
    hier.rack_aware = cluster.topology.two_tier();
    HierarchicalStats hs = run_hierarchical_allreduce(grads, cfg, cluster,
                                                      hier, /*verify=*/false);
    for (std::size_t w = 0; w < tensors.size(); ++w) {
      tensors[w] = std::move(grads[w][0]);
    }
    RunStats stats = hs.inter;
    stats.completion_time = hs.total;
    stats.worker_finish.assign(tensors.size(), hs.total);
    return stats;
  }
};

std::once_flag g_core_registered;

void ensure_core_registered(CollectiveRegistry& reg) {
  std::call_once(g_core_registered, [&reg] {
    reg.register_algorithm(std::make_unique<OmniReduceAlgo>());
    reg.register_algorithm(std::make_unique<SwitchMlAlgo>());
    reg.register_algorithm(std::make_unique<BucketedAlgo>());
    reg.register_algorithm(std::make_unique<SparseKvAlgo>());
    reg.register_algorithm(std::make_unique<HierarchicalAlgo>());
  });
}

}  // namespace

CollectiveRegistry& CollectiveRegistry::global() {
  static CollectiveRegistry registry;
  ensure_core_registered(registry);
  return registry;
}

RunStats run_collective(const std::string& name,
                        std::vector<tensor::DenseTensor>& tensors,
                        const Config& cfg, const ClusterSpec& cluster,
                        bool verify) {
  CollectiveAlgorithm& algo = CollectiveRegistry::global().at(name);
  validate_capabilities(algo.capabilities(), cfg, cluster, name);
  if (tensors.empty()) {
    throw std::invalid_argument(name + ": no worker tensors");
  }
  for (const auto& t : tensors) {
    if (t.size() != tensors.front().size()) {
      throw std::invalid_argument(name + ": worker tensors differ in size");
    }
  }
  ReferenceCheck check;
  if (verify) check = ReferenceCheck(tensors, cfg);
  RunStats stats = algo.run(tensors, cfg, cluster);
  if (verify && stats.completed()) {
    const ReferenceCheck::Outcome outcome = check.check(
        tensors, algo.verify_tolerance(check.reference(), tensors.size()),
        [&algo](const tensor::DenseTensor& result,
                const tensor::DenseTensor& reference) {
          return algo.verify_error(result, reference);
        });
    stats.max_error = outcome.max_error;
    stats.verified = outcome.ok;
  }
  return stats;
}

}  // namespace omr::core
