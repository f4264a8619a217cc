#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "core/cluster.h"
#include "core/config.h"
#include "core/faults.h"
#include "core/worker.h"
#include "device/device_model.h"
#include "telemetry/report.h"
#include "tensor/dense.h"

namespace omr::core {

/// Outcome of one collective: the counters it shares with its RunReport
/// plus the fault verdict.
struct RunStats : telemetry::CollectiveStats {
  /// Fault-injection outcome. Default (kCompleted) for unfaulted runs; a
  /// faulted run either completes exactly or carries a verdict here —
  /// completion_time is then the time the verdict was declared.
  FailureInfo failure;

  bool completed() const { return !failure.failed(); }
};

/// Reference reduction matching the engine's sparse semantics: per block
/// position, fold contributing workers (all workers in dense mode, workers
/// with a non-zero block otherwise) element-wise with the operator; block
/// positions nobody contributes stay zero. For kSum this is the plain sum.
tensor::DenseTensor reference_reduce(
    const std::vector<tensor::DenseTensor>& tensors, const Config& cfg);

/// Run one OmniReduce AllReduce over a freshly built simulated cluster (a
/// one-shot RunContext; fault injection allowed).
///
/// `tensors` (one per worker) are reduced in place: on return every entry
/// holds the element-wise sum. With `verify`, the result is checked against
/// a serial reference reduction (tolerance scales with worker count).
RunStats run_allreduce(std::vector<tensor::DenseTensor>& tensors,
                       const Config& cfg, const ClusterSpec& cluster,
                       bool verify = true);

/// Like run_allreduce, but additionally returns the telemetry RunReport:
/// bytes-conservation totals, per-round histograms, per-stream slot
/// timelines and — when cluster.telemetry.trace_events is set — the full
/// Chrome-trace event timeline. Works with telemetry disabled too (the
/// report then carries stats + run parameters only).
telemetry::RunReport run_allreduce_report(
    std::vector<tensor::DenseTensor>& tensors, const Config& cfg,
    const ClusterSpec& cluster, bool verify = true,
    const std::string& label = "allreduce");

}  // namespace omr::core
