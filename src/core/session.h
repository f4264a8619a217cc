#pragma once

#include <memory>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "core/engine.h"
#include "sim/time.h"
#include "telemetry/report.h"

namespace omr::core {

class RunContext;

/// A persistent OmniReduce deployment: the cluster (simulator, fabric,
/// worker and aggregator endpoints) is built once and reused for a
/// sequence of collectives, as in training where one AllReduce runs per
/// iteration. Virtual time is continuous across calls — per-iteration
/// completion times are deltas. State resets between tensors follow the
/// paper's "wait for new tensor" transition (Fig. 2f / Algorithm 1 line
/// 26): fresh per-stream slots for each collective.
///
/// Tensors of different sizes may be reduced by the same session (the
/// stream layout is rebuilt per call); the worker/aggregator topology and
/// NIC state persist. When spec.telemetry.enabled, a Tracer lives for the
/// whole session, so traces and counter totals span all collectives run
/// through it. The deployment is a RunContext — the same one a one-shot
/// run_allreduce builds — so a fresh Session's first collective is
/// byte-identical to the one-shot run on the same inputs.
class Session {
 public:
  Session(const Config& cfg, std::size_t n_workers,
          const ClusterSpec& cluster);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Reduce `tensors` (one per worker, equal sizes) in place. Returns the
  /// per-call statistics; completion_time is the duration of this call
  /// (not the absolute virtual time).
  RunStats allreduce(std::vector<tensor::DenseTensor>& tensors,
                     bool verify = true);

  /// AllGather over this session's workers (§7): worker w contributes
  /// `shards[w]`; each shard lands at its offset in a concatenated tensor
  /// and the engine's zero-block skipping transmits only owned blocks.
  /// `out` receives the concatenation (equal shard sizes not required).
  RunStats allgather(std::vector<tensor::DenseTensor>& shards,
                     tensor::DenseTensor& out, bool verify = true);

  /// Broadcast `root_data` from worker `root`: the degenerate sparse
  /// AllReduce where the other N-1 inputs are all-zero. `outputs[w]`
  /// receives the broadcast tensor for every w.
  RunStats broadcast(const tensor::DenseTensor& root_data, std::size_t root,
                     std::vector<tensor::DenseTensor>& outputs,
                     bool verify = true);

  std::size_t n_workers() const;
  /// Absolute virtual time consumed so far.
  sim::Time now() const;
  std::size_t collectives_run() const { return collectives_run_; }

  /// Telemetry report for the most recent collective run through this
  /// session. Stats and the label are per-call; tracer-derived totals,
  /// histograms and the trace are cumulative over the session's lifetime.
  /// Valid after the first collective.
  const telemetry::RunReport& last_report() const { return last_report_; }

 private:
  RunStats run(std::vector<tensor::DenseTensor>& tensors, bool verify,
               const char* label);

  std::unique_ptr<RunContext> ctx_;
  std::size_t collectives_run_ = 0;
  telemetry::RunReport last_report_;
};

}  // namespace omr::core
