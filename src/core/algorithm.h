#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "core/engine.h"
#include "tensor/dense.h"

namespace omr::core {

/// What a registered algorithm can and cannot simulate. The registry
/// validates a requested (Config, ClusterSpec) against these before
/// dispatching, so asking a flat analytic baseline for a lossy two-tier
/// run fails loudly instead of silently ignoring the fabric.
struct AlgoCapabilities {
  /// Supports ReduceOp::kMin / kMax in addition to kSum.
  bool supports_min_max = false;
  /// Simulates packet loss (Bernoulli or burst) with recovery.
  bool supports_loss = false;
  /// Honors TopologySpec::kTwoTier (rack/spine contention); algorithms
  /// without this run only on the ideal non-blocking switch.
  bool supports_topology = false;
  /// Honors ClusterSpec::faults (stragglers, crashes, flaps).
  bool supports_faults = false;
  /// Honors Config::codec (inline wire compression): payloads shrink on
  /// the wire and results are quantized. Algorithms without this reject a
  /// codec-enabled Config instead of silently ignoring it.
  bool supports_codec = false;
};

/// One collective algorithm behind the unified API: OmniReduce variants,
/// the dense/sparse baselines, and the new Ok-Topk / count-sketch
/// reducers all implement this interface and register under a string key.
///
/// `run` reduces `tensors` (one per worker, equal sizes) in place — on
/// return every entry holds the reduction — and reports the simulated
/// completion statistics. Implementations must be re-entrant: `run` keeps
/// all per-call state on the stack so one registered instance can serve
/// concurrent sweep cells, and must be deterministic given (tensors,
/// Config, ClusterSpec) including the fabric seed.
class CollectiveAlgorithm {
 public:
  virtual ~CollectiveAlgorithm() = default;

  virtual std::string name() const = 0;
  virtual AlgoCapabilities capabilities() const = 0;
  virtual RunStats run(std::vector<tensor::DenseTensor>& tensors,
                       const Config& cfg, const ClusterSpec& cluster) = 0;

  /// Error measure compared against verify_tolerance(): the per-worker
  /// deviation of `result` from `reference` (run_collective takes the max
  /// across workers). The default is max-abs, the right metric for exact
  /// algorithms; approximate algorithms whose guarantee lives in another
  /// norm override it (the count-sketch reducer measures L2 distance —
  /// its worst single entry stays O(1) at any width, but the L2 error
  /// shrinks linearly with it).
  virtual double verify_error(const tensor::DenseTensor& result,
                              const tensor::DenseTensor& reference) const;

  /// Bound on verify_error() used when verifying this algorithm's result
  /// against reference_reduce. The default covers exact algorithms
  /// (float accumulation-order noise, scaling with worker count);
  /// approximate algorithms override it with their analytic epsilon,
  /// which may depend on the reference norm.
  virtual double verify_tolerance(const tensor::DenseTensor& reference,
                                  std::size_t n_workers) const;
};

/// String-keyed algorithm registry — the public dispatch surface. Core
/// registers its own engine-based algorithms (omnireduce, switchml) on
/// first access; baselines::register_zoo() adds the dense/sparse baselines
/// plus Ok-Topk and the sketch reducer. Registration and lookup are
/// thread-safe; returned references stay valid for the registry's
/// lifetime.
class CollectiveRegistry {
 public:
  /// The process-wide registry (used by run_collective, the selector,
  /// benches and the CLI).
  static CollectiveRegistry& global();

  /// Throws std::invalid_argument if the name is already taken.
  void register_algorithm(std::unique_ptr<CollectiveAlgorithm> algo);
  /// Throws std::invalid_argument naming the known algorithms when `name`
  /// is not registered.
  CollectiveAlgorithm& at(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  struct Impl;
  CollectiveRegistry();
  ~CollectiveRegistry();
  std::unique_ptr<Impl> impl_;
};

/// Throws std::invalid_argument when (cfg, cluster) asks for something
/// `caps` cannot simulate (non-sum op, lossy fabric, two-tier topology,
/// fault schedule, wire codec). `name` is used in the message.
void validate_capabilities(const AlgoCapabilities& caps, const Config& cfg,
                           const ClusterSpec& cluster, const std::string& name);

/// Non-throwing form of validate_capabilities: true when `caps` can
/// simulate everything (cfg, cluster) asks for. The selector uses this to
/// drop unviable candidates instead of failing the step.
bool capabilities_allow(const AlgoCapabilities& caps, const Config& cfg,
                        const ClusterSpec& cluster);

/// Look up `name` in the global registry, validate capabilities and the
/// tensors (std::invalid_argument for no workers or unequal sizes), run, and
/// (with `verify`) check the in-place result of every worker against
/// reference_reduce using the algorithm's tolerance — filling
/// stats.verified / stats.max_error. Verification is skipped when a
/// faulted run did not complete.
RunStats run_collective(const std::string& name,
                        std::vector<tensor::DenseTensor>& tensors,
                        const Config& cfg, const ClusterSpec& cluster,
                        bool verify = true);

}  // namespace omr::core
