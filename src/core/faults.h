#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "telemetry/telemetry.h"

namespace omr::core {

/// Outcome classification of a faulted run. A run either completes exactly
/// (the reduced tensor is bit-equal to the serial reference) or terminates
/// with a verdict naming what blocked it — the engine never hangs.
enum class RunVerdict : std::uint8_t {
  kCompleted = 0,
  /// Liveness escalation: a peer stayed unresponsive past the policy's
  /// deadline. `FailureInfo::peer` names the worker (or, when
  /// peer_is_aggregator, the aggregator node) the protocol was blocked on.
  /// Note this is *attribution by observation*: a peer inside an outage
  /// longer than the liveness deadline is indistinguishable from a dead
  /// one, so deadlines must exceed the outages a run is expected to ride
  /// out (docs/ROBUSTNESS.md).
  kPeerDead,
  /// The bounded simulated-time watchdog expired with unfinished workers
  /// and no liveness verdict — the backstop that turns any residual stall
  /// into a structured failure.
  kWatchdog,
};

const char* verdict_name(RunVerdict v);

/// Structured failure verdict attached to RunStats / RunReport.
struct FailureInfo {
  RunVerdict verdict = RunVerdict::kCompleted;
  bool peer_is_aggregator = false;
  std::int32_t peer = -1;  // worker id or aggregator node index; -1 = n/a
  sim::Time at = 0;        // virtual time the verdict was declared
  std::string detail;      // human-readable one-liner

  bool failed() const { return verdict != RunVerdict::kCompleted; }
};

/// Retry/liveness policy for the transports under fault injection. The
/// timeout schedule itself is fixed (FaultController::retransmit_timeout):
/// the run's derived Algorithm 2 timeout, doubled per consecutive timeout
/// of one packet up to 32x, scaled by a jitter factor in [1, 1.1) drawn
/// from per-worker seeded RNGs, so a fault schedule replays
/// bit-identically.
struct RetryPolicy {
  /// Give up on a packet after this many consecutive timeouts and declare
  /// the slot's aggregator dead (0 = no retry cap).
  std::uint32_t max_retries = 0;
  /// Aggregator-side liveness: an open aggregation round missing some
  /// worker's contribution for longer than this declares that worker dead
  /// (0 disables the check; the watchdog still bounds the run).
  sim::Time peer_dead_after = sim::milliseconds(250);
  /// Worker-side liveness: total time waiting on one packet before the
  /// slot's aggregator is declared dead. Deliberately defaults to well
  /// past peer_dead_after so the aggregator-side verdict (which can name
  /// the *specific* missing worker) wins attribution.
  sim::Time unreachable_after = sim::seconds(1);
};

/// Seeded per-worker compute-delay (straggler) distribution: every fresh
/// data packet's transmission is delayed by an exponential draw, capped at
/// 10x the mean.
struct StragglerSpec {
  double mean_delay_ns = 0.0;  // 0 = no stragglers

  bool enabled() const { return mean_delay_ns > 0.0; }
};

/// Worker crash at virtual time `at`; restart `restart_after` later with
/// block-level state resync on rejoin (0 = never restarts). The worker's
/// tensor survives (GPU memory / checkpoint semantics); all protocol state
/// is lost and rebuilt from the aggregator's last emitted result.
struct CrashSpec {
  std::uint32_t worker = 0;
  sim::Time at = 0;
  sim::Time restart_after = 0;
};

/// Aggregator slot stall: node `aggregator` stops processing incoming
/// packets during [at, at + duration) — a GC pause / scheduler hiccup.
/// Deferred packets are processed in arrival order when the stall lifts.
struct AggStallSpec {
  std::uint32_t aggregator = 0;
  sim::Time at = 0;
  sim::Time duration = 0;
};

/// Spine link flap on a two-tier Topology: rack `rack`'s uplink (or
/// downlink) drops every message during [at, at + duration).
struct LinkFlapSpec {
  std::uint32_t rack = 0;
  bool downlink = false;
  sim::Time at = 0;
  sim::Time duration = 0;
};

/// NIC flap: the worker (or dedicated-aggregator) NIC loses every message
/// sent or received during [at, at + duration).
struct NicFlapSpec {
  bool on_aggregator = false;
  std::uint32_t index = 0;  // worker id or aggregator node index
  sim::Time at = 0;
  sim::Time duration = 0;
};

/// Fault schedule for one cluster, carried on core::ClusterSpec. Every
/// fault is driven by simulator events and seeded RNGs, so the same spec +
/// seed replays bit-identically. The default-constructed spec is inert:
/// the engine then builds no FaultController and the simulation is
/// byte-for-byte the unfaulted path.
struct FaultSpec {
  std::uint64_t seed = 1;
  StragglerSpec stragglers;
  std::vector<CrashSpec> crashes;
  std::vector<AggStallSpec> agg_stalls;
  std::vector<LinkFlapSpec> link_flaps;
  std::vector<NicFlapSpec> nic_flaps;
  RetryPolicy retry;
  /// Bounded simulated-time watchdog: a run still unfinished at this
  /// virtual time terminates with RunVerdict::kWatchdog.
  sim::Time watchdog = sim::seconds(30);

  bool enabled() const {
    return stragglers.enabled() || !crashes.empty() || !agg_stalls.empty() ||
           !link_flaps.empty() || !nic_flaps.empty();
  }
  /// Faults that lose packets or protocol state force Algorithm 2 loss
  /// recovery on (stragglers and stalls only delay, they lose nothing).
  bool needs_recovery() const {
    return !crashes.empty() || !link_flaps.empty() || !nic_flaps.empty();
  }
};

/// Per-run fault coordinator owned by the engine and shared (as a raw
/// pointer, like the Tracer) by workers and aggregators. Holds the seeded
/// per-worker RNGs for straggler draws and backoff jitter, the stall
/// windows, and the single FailureInfo — the first declared verdict wins,
/// after which every protocol handler returns early and the event queue
/// drains in bounded time.
class FaultController {
 public:
  FaultController(const FaultSpec& spec, telemetry::Tracer* tracer);

  const FaultSpec& spec() const { return spec_; }
  bool aborted() const { return failure_.failed(); }
  const FailureInfo& failure() const { return failure_; }
  bool liveness_enabled() const { return spec_.retry.peer_dead_after > 0; }

  /// Engine wiring: maps an aggregator endpoint to its node index so a
  /// worker-side give-up can name the node in its verdict.
  void register_aggregator(net::EndpointId ep, std::size_t node);

  /// Straggler compute delay for worker `wid`'s next fresh packet
  /// (0 when stragglers are disabled; no RNG draw in that case).
  sim::Time compute_delay(std::uint32_t wid);

  /// Backoff schedule: timeout for `attempt` consecutive retries of one
  /// packet (attempt 0 = first transmission), with deterministic jitter,
  /// from the base `rto` (the worker's derived Algorithm 2 timeout).
  sim::Time retransmit_timeout(std::uint32_t wid, std::uint32_t attempt,
                               sim::Time rto);

  /// Worker-side give-up test after `attempts` timeouts spanning `waited`.
  bool give_up(std::uint32_t attempts, sim::Time waited) const;

  /// End of the stall window covering `now` on aggregator `node`
  /// (returns `now` when the node is live).
  sim::Time stalled_until(std::size_t node, sim::Time now) const;

  // --- verdicts (first declaration wins) ---------------------------------
  void declare_worker_dead(std::uint32_t wid, sim::Time now,
                           std::string detail);
  void declare_aggregator_dead(net::EndpointId ep, sim::Time now,
                               std::string detail);
  void watchdog_fired(sim::Time now);

 private:
  void fail(FailureInfo info);
  sim::Rng& worker_rng(std::uint32_t wid);

  FaultSpec spec_;
  telemetry::Tracer* tracer_;
  std::vector<sim::Rng> worker_rngs_;  // grown lazily, seeded by worker id
  /// Per-aggregator-node stall windows, sorted by start.
  std::vector<std::vector<std::pair<sim::Time, sim::Time>>> stall_windows_;
  std::unordered_map<net::EndpointId, std::size_t> agg_node_of_ep_;
  FailureInfo failure_;
};

}  // namespace omr::core
