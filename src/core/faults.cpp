#include "core/faults.h"

#include <algorithm>
#include <cmath>

namespace omr::core {

namespace {

/// Each straggler draw is capped at this multiple of its mean.
constexpr double kStragglerCapFactor = 10.0;
/// Retransmission backoff: the timeout grows by kBackoff per consecutive
/// timeout of one packet, up to kBackoffCapFactor x the base, and each
/// armed timeout is scaled by a uniform factor in [1, 1 + kJitter) that
/// decorrelates retry storms.
constexpr double kBackoff = 2.0;
constexpr double kBackoffCapFactor = 32.0;
constexpr double kJitter = 0.1;

}  // namespace

const char* verdict_name(RunVerdict v) {
  switch (v) {
    case RunVerdict::kCompleted: return "completed";
    case RunVerdict::kPeerDead: return "peer_dead";
    case RunVerdict::kWatchdog: return "watchdog";
  }
  return "unknown";
}

FaultController::FaultController(const FaultSpec& spec,
                                 telemetry::Tracer* tracer)
    : spec_(spec), tracer_(tracer) {
  for (const AggStallSpec& s : spec_.agg_stalls) {
    const auto node = static_cast<std::size_t>(s.aggregator);
    if (node >= stall_windows_.size()) stall_windows_.resize(node + 1);
    stall_windows_[node].emplace_back(s.at, s.at + s.duration);
  }
  for (auto& windows : stall_windows_) {
    std::sort(windows.begin(), windows.end());
  }
}

void FaultController::register_aggregator(net::EndpointId ep,
                                          std::size_t node) {
  agg_node_of_ep_[ep] = node;
}

sim::Rng& FaultController::worker_rng(std::uint32_t wid) {
  // Same index-keyed derivation the topology uses for per-link loss RNGs:
  // every worker's fault stream is independent of the others and of the
  // traffic order.
  while (worker_rngs_.size() <= wid) {
    const auto i = static_cast<std::uint64_t>(worker_rngs_.size());
    worker_rngs_.emplace_back(spec_.seed ^ (0xd1b54a32d192ed03ULL * (i + 1)));
  }
  return worker_rngs_[wid];
}

sim::Time FaultController::compute_delay(std::uint32_t wid) {
  const double mean = spec_.stragglers.mean_delay_ns;
  if (mean <= 0.0) return 0;
  // Inverse-CDF exponential on a [0,1) uniform: log1p(-u) is exact near 0
  // and never hits log(0).
  const double u = worker_rng(wid).next_double();
  const double cap = kStragglerCapFactor * mean;
  const double delay = std::min(-mean * std::log1p(-u), cap);
  return static_cast<sim::Time>(delay + 0.5);
}

sim::Time FaultController::retransmit_timeout(std::uint32_t wid,
                                              std::uint32_t attempt,
                                              sim::Time rto) {
  const double base = static_cast<double>(rto);
  const double cap = kBackoffCapFactor * base;
  double t = base;
  if (attempt > 0) {
    t = std::min(base * std::pow(kBackoff, static_cast<double>(attempt)),
                 cap);
  }
  t *= 1.0 + kJitter * worker_rng(wid).next_double();
  return std::max<sim::Time>(static_cast<sim::Time>(t + 0.5), 1);
}

bool FaultController::give_up(std::uint32_t attempts, sim::Time waited) const {
  const RetryPolicy& r = spec_.retry;
  if (r.max_retries > 0 && attempts > r.max_retries) return true;
  if (r.unreachable_after > 0 && waited > r.unreachable_after) return true;
  return false;
}

sim::Time FaultController::stalled_until(std::size_t node,
                                         sim::Time now) const {
  if (node >= stall_windows_.size()) return now;
  sim::Time until = now;
  // Windows may overlap or chain; take the furthest end reachable from
  // `now`. A stall ending inside another window extends through it.
  for (const auto& [from, to] : stall_windows_[node]) {
    if (from > until) break;  // sorted: no later window can cover `until`
    until = std::max(until, to);
  }
  return until;
}

void FaultController::fail(FailureInfo info) {
  if (failure_.failed()) return;  // first verdict wins
  failure_ = std::move(info);
  if (tracer_ != nullptr) {
    tracer_->peer_dead(failure_.at,
                       static_cast<std::uint64_t>(
                           failure_.verdict == RunVerdict::kWatchdog
                               ? -1
                               : failure_.peer),
                       failure_.peer_is_aggregator ? 1 : 0);
  }
}

void FaultController::declare_worker_dead(std::uint32_t wid, sim::Time now,
                                          std::string detail) {
  fail({RunVerdict::kPeerDead, false, static_cast<std::int32_t>(wid), now,
        std::move(detail)});
}

void FaultController::declare_aggregator_dead(net::EndpointId ep,
                                              sim::Time now,
                                              std::string detail) {
  const auto it = agg_node_of_ep_.find(ep);
  const std::int32_t node =
      it != agg_node_of_ep_.end() ? static_cast<std::int32_t>(it->second) : -1;
  fail({RunVerdict::kPeerDead, true, node, now, std::move(detail)});
}

void FaultController::watchdog_fired(sim::Time now) {
  fail({RunVerdict::kWatchdog, false, -1, now,
        "watchdog expired with unfinished workers"});
}

}  // namespace omr::core
