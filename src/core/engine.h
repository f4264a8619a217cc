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

/// Outcome of one collective.
struct RunStats {
  sim::Time completion_time = 0;  // max over workers (the paper's metric)
  std::vector<sim::Time> worker_finish;
  std::vector<std::uint64_t> worker_data_bytes;  // payload only
  std::uint64_t total_messages = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t acks = 0;               // payload-less packets (Algorithm 2)
  std::uint64_t duplicate_resends = 0;  // aggregator result retransmissions
  bool verified = false;
  double max_error = 0.0;
  /// Per-fabric-link counters (empty on the default ideal switch). For a
  /// Session these are per-collective deltas.
  std::vector<telemetry::LinkReport> links;
  /// Fault-injection outcome. Default (kCompleted) for unfaulted runs; a
  /// faulted run either completes exactly or carries a verdict here —
  /// completion_time is then the time the verdict was declared.
  FailureInfo failure;
  /// Fault-layer counters (populated only when ClusterSpec::faults is
  /// enabled; empty/zero otherwise).
  std::vector<std::uint64_t> worker_retries;
  std::vector<sim::Time> worker_fault_stall_ns;
  std::uint64_t worker_crashes = 0;
  std::uint64_t resyncs = 0;
  /// Wire-codec lane (populated only when Config::codec is enabled; empty
  /// name / zero counters otherwise so old reports stay byte-identical).
  std::string codec;
  std::uint64_t codec_saved_bytes = 0;   // both legs, raw minus encoded
  std::uint64_t codec_exact_folds = 0;   // quantized-domain column sums
  std::uint64_t codec_requant_folds = 0; // dequant-fold-requant fallbacks
  double codec_residual_l2 = 0.0;        // sqrt(sum sq quantization error)

  bool completed() const { return !failure.failed(); }

  double completion_ms() const { return sim::to_milliseconds(completion_time); }
  /// Mean per-worker transmitted payload (Table 1's "OmniReduce comm.").
  double mean_worker_data_bytes() const {
    if (worker_data_bytes.empty()) return 0.0;
    double s = 0.0;
    for (auto b : worker_data_bytes) s += static_cast<double>(b);
    return s / static_cast<double>(worker_data_bytes.size());
  }
};

/// Reference reduction matching the engine's sparse semantics: per block
/// position, fold contributing workers (all workers in dense mode, workers
/// with a non-zero block otherwise) element-wise with the operator; block
/// positions nobody contributes stay zero. For kSum this is the plain sum.
tensor::DenseTensor reference_reduce(
    const std::vector<tensor::DenseTensor>& tensors, const Config& cfg);

/// Run one OmniReduce AllReduce over a freshly built simulated cluster.
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

/// Assemble a RunReport from finished-run stats plus (optionally) a tracer's
/// accumulated totals, histograms, timelines and trace. Used by
/// run_allreduce_report and Session; `tracer` may be null.
telemetry::RunReport make_run_report(const std::string& label,
                                     const RunStats& stats,
                                     const ClusterSpec& cluster,
                                     std::size_t n_workers,
                                     std::size_t n_elements,
                                     const telemetry::Tracer* tracer);

}  // namespace omr::core
