#include "core/algorithm.h"

#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/run_context.h"

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

std::once_flag g_core_registered;

void ensure_core_registered(CollectiveRegistry& reg) {
  std::call_once(g_core_registered, [&reg] {
    reg.register_algorithm(std::make_unique<OmniReduceAlgo>());
    reg.register_algorithm(std::make_unique<SwitchMlAlgo>());
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
