#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/faults.h"
#include "device/device_model.h"
#include "net/topology.h"
#include "sim/time.h"
#include "telemetry/telemetry.h"

namespace omr::core {

/// Fabric parameters for one simulated cluster.
struct FabricConfig {
  double worker_bandwidth_bps = 10e9;
  double aggregator_bandwidth_bps = 10e9;
  sim::Time one_way_latency = sim::microseconds(10);
  double loss_rate = 0.0;
  /// Fabric-level Gilbert-Elliott burst loss (active when
  /// burst_loss.enabled()); replaces the Bernoulli `loss_rate` draw with a
  /// two-state Markov chain, so drops arrive in bursts. Like loss_rate,
  /// it forces Algorithm 2 loss recovery on.
  net::GilbertElliottConfig burst_loss;
  std::uint64_t seed = 1;
  /// Per-worker start offsets (compute skew / stragglers). Empty = all
  /// workers enter the collective at t=0. Since every aggregation round
  /// needs the slowest owner, OmniReduce — like any synchronous collective
  /// — is gated by the last worker; this knob quantifies that.
  std::vector<sim::Time> worker_start_offsets;
  /// Per-message CPU cost at the aggregator's receive path (ns): a
  /// software (DPDK) aggregator spends CPU per packet regardless of size;
  /// 0 models line-rate processing. Calibrating this to ~1.2 us/packet
  /// reproduces the paper's measured dense-DPDK parity with NCCL (their
  /// Fig. 4; see bench_ablation_cpu_bound). Worker NICs receive at line
  /// rate.
  double aggregator_rx_overhead_ns = 0.0;

  /// True when any loss process (Bernoulli or burst) is active — the
  /// engine then forces Algorithm 2 recovery on.
  bool lossy() const { return loss_rate > 0.0 || burst_loss.enabled(); }
};

/// Fabric shape and placement: which topology joins the NICs and where
/// each machine sits. The default (kIdealSwitch) reproduces the flat
/// non-blocking switch bit-identically; kTwoTier places NICs in racks
/// under ToR switches joined by an oversubscribable spine. Each hop
/// propagates in fabric.one_way_latency / 2, so intra-rack paths cross the
/// fabric in exactly one_way_latency.
struct TopologySpec {
  enum class Kind { kIdealSwitch, kTwoTier };
  Kind kind = Kind::kIdealSwitch;

  /// Number of racks (kTwoTier only).
  std::size_t n_racks = 2;
  /// Spine oversubscription ratio (>= 1): each rack's uplink capacity is
  /// the sum of its NIC speeds divided by this. 1.0 = full bisection.
  double oversubscription = 1.0;
  /// Explicit per-rack uplink capacity override in bps (0 = derived).
  double uplink_bandwidth_bps = 0.0;
  /// Rack of each worker (empty = contiguous fill: rack w*n_racks/n).
  std::vector<int> worker_racks;
  /// Rack of each dedicated aggregator node (empty = round-robin).
  std::vector<int> aggregator_racks;
  /// Per-spine-link loss: Bernoulli rate and/or Gilbert-Elliott bursts
  /// (burst wins when enabled). Applied independently per uplink/downlink.
  double spine_loss_rate = 0.0;
  net::GilbertElliottConfig spine_burst_loss;

  bool two_tier() const { return kind == Kind::kTwoTier; }
  bool spine_lossy() const {
    return spine_loss_rate > 0.0 || spine_burst_loss.enabled();
  }

  static TopologySpec two_tier_racks(std::size_t racks,
                                     double oversubscription_ratio = 1.0) {
    TopologySpec t;
    t.kind = Kind::kTwoTier;
    t.n_racks = racks;
    t.oversubscription = oversubscription_ratio;
    return t;
  }
};

/// Shape of a sharded parameter-server serving tier (src/serve) running as
/// one custom job of a multi-tenant core::Fabric: N PsShard endpoints
/// answer Zipf(alpha)-skewed embedding lookup/update streams produced by
/// open-loop clients over a DeepLight-style key space, with per-shard
/// hot-embedding caching and request batching. Plain data, so it lives in
/// core next to ClusterSpec; the behavior lives in serve::ServingJob.
struct ServeSpec {
  enum class Routing { kHash, kRange };
  enum class CachePolicy { kLru, kLfu };

  std::size_t n_shards = 4;
  std::size_t n_clients = 4;
  /// Embedding rows. DeepLight's Table-1 embedding is ~1e6+ rows; tests
  /// use a few thousand.
  std::size_t key_space = std::size_t{1} << 20;
  /// Embedding row width in floats; lookup responses (and update pushes)
  /// carry embedding_dim * 4 payload bytes.
  std::size_t embedding_dim = 64;
  /// Zipf skew of the key popularity (0 = uniform). Keys are popularity
  /// ranks: key 0 is the hottest row.
  double zipf_alpha = 0.9;
  /// Fraction of requests that are updates (gradient-push writes).
  double update_fraction = 0.05;
  std::size_t requests_per_client = 1000;
  /// Open-loop issue gap: client request r departs at start + r *
  /// interarrival regardless of responses (a fixed absolute schedule, so
  /// the arrival stream at the shards is independent of service times —
  /// which is what makes cache hit counts exactly monotone in capacity).
  sim::Time interarrival = sim::microseconds(2);
  /// Shard batching window: requests arriving within batch_window of a
  /// batch's first request coalesce into one CPU pass. 0 = serve each
  /// request the moment it arrives (unbatched).
  sim::Time batch_window = 0;
  /// Hot-embedding cache entries per shard (0 disables caching).
  std::size_t cache_capacity = 0;
  CachePolicy cache_policy = CachePolicy::kLru;
  Routing routing = Routing::kHash;
  std::uint64_t seed = 1;
};

/// Everything that describes *where* a collective runs, as one value: the
/// fabric, the aggregator placement, the accelerator model and the
/// telemetry switches. Replaces the (FabricConfig, Deployment,
/// n_aggregator_nodes, DeviceModel) tuple previously threaded through
/// every entry point; `Config` stays separate because it describes the
/// *algorithm*, not the cluster.
struct ClusterSpec {
  FabricConfig fabric;
  TopologySpec topology;
  Deployment deployment = Deployment::kDedicated;
  /// Ignored under Deployment::kColocated (one shard per worker NIC).
  std::size_t n_aggregator_nodes = 1;
  device::DeviceModel device;
  /// Opt-in instrumentation; the default is fully disabled (null tracer,
  /// zero cost on the event loop).
  telemetry::TelemetryConfig telemetry;
  /// Deterministic fault schedule (stragglers, crashes with resync,
  /// aggregator stalls, NIC/link flaps) plus the retry/liveness policy.
  /// Default-constructed = inert: the engine runs the unfaulted path
  /// byte-identically. See docs/ROBUSTNESS.md.
  FaultSpec faults;

  /// Dedicated aggregator machines (the paper's testbed shape).
  static ClusterSpec dedicated(std::size_t n_aggregators,
                               const FabricConfig& fabric = {},
                               const device::DeviceModel& device = {}) {
    ClusterSpec spec;
    spec.fabric = fabric;
    spec.deployment = Deployment::kDedicated;
    spec.n_aggregator_nodes = n_aggregators;
    spec.device = device;
    return spec;
  }

  /// Aggregator shards colocated on the worker NICs.
  static ClusterSpec colocated(const FabricConfig& fabric = {},
                               const device::DeviceModel& device = {}) {
    ClusterSpec spec;
    spec.fabric = fabric;
    spec.deployment = Deployment::kColocated;
    spec.device = device;
    return spec;
  }
};

}  // namespace omr::core
