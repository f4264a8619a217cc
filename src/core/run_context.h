#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compress/wire_codec.h"
#include "core/cluster.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/faults.h"
#include "core/wiring.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "telemetry/report.h"
#include "tensor/dense.h"

namespace omr::core {

/// The one reference check behind every run path (one-shot runs, Session,
/// the registry's run_collective and Fabric jobs): capture the expected
/// result before the run overwrites its inputs, then compare the results
/// against it with a caller-chosen base tolerance plus the codec slack.
class ReferenceCheck {
 public:
  /// Per-result deviation from the reference; max-abs when left empty.
  using ErrorFn = std::function<double(const tensor::DenseTensor& result,
                                       const tensor::DenseTensor& reference)>;

  struct Outcome {
    double max_error = 0.0;
    bool ok = false;
  };

  ReferenceCheck() = default;
  /// Capture reference_reduce over the workers `active` marks (all of them
  /// when empty or all ones) and, with a codec on, their largest |value|,
  /// which the codec's error bound scales with.
  ReferenceCheck(const std::vector<tensor::DenseTensor>& inputs,
                 const Config& cfg, std::vector<std::uint8_t> active = {});

  const tensor::DenseTensor& reference() const { return reference_; }

  /// Largest `error` over the active results, and whether it is within
  /// `base_tol` plus the codec slack for the contributing worker count.
  /// A result bitwise equal to the last one evaluated is not evaluated
  /// again, so `error` must depend on its arguments alone.
  Outcome check(const std::vector<tensor::DenseTensor>& results,
                double base_tol, const ErrorFn& error = {}) const;

 private:
  tensor::DenseTensor reference_;
  std::vector<std::uint8_t> active_;
  std::size_t contributors_ = 0;
  compress::WireCodec codec_ = compress::WireCodec::kNone;
  double input_amax_ = 0.0;
};

/// What one collective needs decided before it starts, for RunContext
/// collectives and Fabric steps alike. Workers read it during the run, so
/// it must outlive the run.
struct CollectivePlan {
  StreamLayout layout;
  std::vector<std::uint32_t> owner;         // owning aggregator per stream
  std::vector<net::EndpointId> agg_eps;     // endpoint per aggregator
  std::vector<std::size_t> streams_on_agg;  // the timeout is sized from these
  RetransmitTimeout timeout;
  std::optional<ReferenceCheck> check;      // set when verifying

  net::EndpointId owner_ep(std::size_t stream) const {
    return agg_eps[owner[stream]];
  }
};

/// Plan one collective over `n_elements`: the layout, stream ownership
/// round-robin over the aggregators (§3: each node owns a disjoint shard),
/// the timeout for the workers `active` marks (all when empty) and, when
/// `verify_inputs` is given, a ReferenceCheck over those workers' inputs.
CollectivePlan plan_collective(
    const Config& cfg, std::size_t n_elements, net::Network& net,
    const std::vector<net::NicId>& worker_nics,
    const std::vector<net::NicId>& agg_nics,
    const std::vector<net::EndpointId>& agg_eps,
    const std::vector<tensor::DenseTensor>* verify_inputs = nullptr,
    const std::vector<std::uint8_t>& active = {});

/// The simulated run context of one job's collectives: it owns the
/// sim::Simulator, the net::Network over one topology, the NICs, the
/// optional Tracer and FaultController, and the job's wired workers and
/// aggregators. One-shot runs (run_allreduce, run_allreduce_report) build
/// a fresh context per call and a Session keeps one for its lifetime. The
/// multi-tenant Fabric builds its own simulator and network the same way
/// and shares plan_collective and ReferenceCheck with it.
class RunContext {
 public:
  /// One job's cluster: the substrate `cluster` describes with its fabric
  /// loss, n_workers worker NICs then the dedicated aggregator NICs, a
  /// Tracer when `traced` and cluster.telemetry is enabled, a
  /// FaultController when cluster.faults is (the spec is validated), and
  /// the job's workers and aggregators wired once. Lossy fabrics and
  /// recovering fault schedules switch the job's Config to loss recovery.
  RunContext(const Config& cfg, std::size_t n_workers,
             const ClusterSpec& cluster, bool traced);

  ~RunContext();
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  /// Run one collective on the wired job: reduce `tensors` (one per
  /// worker, equal sizes) in place and return this collective's counters
  /// as deltas, with times relative to its start. With `verify` the
  /// result is checked against reference_reduce and a mismatch throws.
  /// `ordinal` numbers the collective's trace span.
  RunStats run_collective(std::vector<tensor::DenseTensor>& tensors,
                          bool verify, const std::string& label,
                          std::size_t ordinal = 0);

  /// RunReport of `stats` plus the tracer's totals, histograms, timelines
  /// and trace (cumulative over the context's lifetime).
  telemetry::RunReport report(const std::string& label, const RunStats& stats,
                              std::size_t n_elements) const;

  sim::Simulator& simulator() { return simulator_; }
  net::Network& network() { return network_; }
  std::size_t n_workers() const { return worker_nics_.size(); }

 private:
  Config cfg_;
  ClusterSpec cluster_;
  sim::Simulator simulator_;
  // Declared before the network, which keeps a pointer to it.
  std::unique_ptr<telemetry::Tracer> tracer_;
  net::Network network_;
  std::unique_ptr<FaultController> faults_;
  std::vector<net::NicId> worker_nics_;
  std::vector<net::NicId> agg_nics_;
  // Workers and aggregators persist across collectives; per-tensor state
  // is reset in Worker::start / Aggregator::begin_collective.
  ProtocolWiring wiring_;
};

}  // namespace omr::core
