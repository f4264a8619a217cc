#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/message.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "telemetry/telemetry.h"

namespace omr::net {

/// Identifies a protocol endpoint attached to some NIC. Several endpoints
/// may share one NIC (e.g., a colocated aggregator on a worker machine).
using EndpointId = int;

/// Full-duplex NIC configuration. Bandwidths are in bits per second to
/// match how the paper quotes link speeds (10 Gbps / 100 Gbps).
struct NicConfig {
  double tx_bandwidth_bps = 10e9;
  double rx_bandwidth_bps = 10e9;
  /// Host-side per-message receive processing cost (ns): models the CPU
  /// budget of a software endpoint (a DPDK aggregator core aggregates at
  /// most ~1/this packets per second). 0 = line-rate processing. The cost
  /// serializes on the same receive resource as wire RX, so it binds when
  /// packets are small.
  double rx_message_overhead_ns = 0.0;
};

/// Per-NIC traffic accounting. Payload bytes are what Table 1 / Table 2
/// report; message counts and drops support the loss-recovery analysis.
struct NicStats {
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_messages = 0;
  std::uint64_t rx_messages = 0;
  std::uint64_t dropped_messages = 0;
};

/// A protocol endpoint: receives messages delivered by the network.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Called (in virtual time) when a message addressed to this endpoint
  /// has fully arrived.
  virtual void on_message(EndpointId from, const MessagePtr& msg) = 0;
};

/// Throws std::invalid_argument unless `weight` is a usable weighted-fair
/// share: finite and > 0. Every tenant weight passes through this one check.
void check_tenant_weight(double weight);

/// Simulated fabric: full-duplex NICs joined by a pluggable Topology.
/// Transmission of a B-byte message occupies the sender TX for B/tx_bw,
/// traverses the topology's path — a propagation delay plus zero or more
/// store-and-forward links, each FIFO-serializing B/link_bw — then occupies
/// the receiver RX for B/rx_bw. TX, link and RX queues are all FIFO and
/// routing is static, so delivery between any NIC pair is in order —
/// matching RDMA RC semantics when the loss rate is zero.
///
/// The default topology is IdealSwitch (one uniform one-way latency, no
/// interior links): exactly the pre-topology fabric, bit-identical runs.
///
/// Loss comes from two places, both seeded: the fabric-level process
/// (Bernoulli via set_loss_rate — the legacy UDP/DPDK model — or
/// Gilbert-Elliott bursts via set_loss_model), applied once per delivery,
/// and per-link processes inside the topology. Protocols must then run
/// their own recovery (Algorithm 2).
class Network {
 public:
  Network(sim::Simulator& simulator, sim::Time one_way_latency,
          std::uint64_t seed = 1);
  /// Custom fabric topology (two-tier racks, ...). The network owns it.
  Network(sim::Simulator& simulator, std::unique_ptr<Topology> topology,
          std::uint64_t seed = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NicId add_nic(const NicConfig& cfg);

  /// Attach an endpoint (non-owning) to a NIC. The endpoint must outlive
  /// the network or be detached by destroying the network first.
  EndpointId attach(Endpoint* endpoint, NicId nic);

  /// Independent drop probability per message (0 disables loss).
  void set_loss_rate(double p) {
    loss_rate_ = p;
    fabric_loss_ = LossProcess::bernoulli(p);
  }
  double loss_rate() const { return loss_rate_; }
  /// Arbitrary fabric-level loss process (e.g. Gilbert-Elliott bursts),
  /// applied once per delivery at the fabric like the Bernoulli model.
  void set_loss_model(const LossProcess& loss) { fabric_loss_ = loss; }

  /// Schedule a NIC outage window (fault injection): every message leaving
  /// the NIC during [from, until) — judged at wire departure — or arriving
  /// at it is dropped. No windows (the default) costs nothing per message.
  void add_nic_flap(NicId nic, sim::Time from, sim::Time until);

  /// Unicast `msg` from `src` to `dst`.
  void send(EndpointId src, EndpointId dst, MessagePtr msg);

  /// Hardware (switch-assisted) multicast: the sender pays one TX
  /// serialization; every receiver pays its own RX serialization. Used by
  /// the in-network (P4) aggregator. Server-based aggregators must instead
  /// loop over unicast sends, paying N TX serializations.
  void send_switch_multicast(EndpointId src, std::span<const EndpointId> dsts,
                             MessagePtr msg);

  /// Attach a typed-event tracer (non-owning; nullptr disables). The
  /// tracer receives TX/RX serialization spans and loss-injection drops;
  /// the caller maps NICs onto trace lanes via Tracer::map_nic.
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }
  telemetry::Tracer* tracer() const { return tracer_; }

  const NicStats& nic_stats(NicId nic) const { return nics_[nic].stats; }
  const NicConfig& nic_config(NicId nic) const { return nics_[nic].cfg; }

  // --- tenancy (weighted-fair link sharing) -------------------------------
  //
  // A tenant is one traffic class sharing the fabric — typically one Job of
  // a multi-tenant core::Fabric. With >= 2 tenants registered, contended
  // interior links switch from a single FIFO cursor to per-tenant virtual
  // cursors: a message of tenant t serializes at bandwidth * w_t / W where
  // W sums the weights of tenants backlogged on the link at its start time
  // (a GPS/WFQ fluid approximation judged per message). Per-pair FIFO
  // ordering is preserved — one sender's messages share one tenant cursor.
  // With <= 1 tenant the legacy FIFO path runs byte-identically.

  /// Register the tenant weight table (index = tenant id, every weight
  /// passing check_tenant_weight). Call before traffic; one entry (or
  /// never calling) keeps the single-tenant fast path.
  void set_tenants(std::vector<double> weights);
  std::size_t n_tenants() const {
    return tenant_weights_.empty() ? 1 : tenant_weights_.size();
  }
  /// Assign an endpoint's traffic to a tenant (default: tenant 0).
  void set_endpoint_tenant(EndpointId ep, int tenant);
  int endpoint_tenant(EndpointId ep) const {
    const auto i = static_cast<std::size_t>(ep);
    return i < tenant_of_.size() ? tenant_of_[i] : 0;
  }
  /// Per-tenant counters of one interior link (zeroes when the tenant
  /// never crossed it).
  const LinkStats& tenant_link_stats(LinkId id, int tenant) const;
  NicId nic_of(EndpointId ep) const { return endpoints_[ep].nic; }
  std::uint64_t total_dropped() const { return total_dropped_; }

  const Topology& topology() const { return *topo_; }
  Topology& topology() { return *topo_; }

  /// The simulator protocol code schedules on.
  sim::Simulator& simulator() { return sim_; }
  sim::Time one_way_latency() const { return latency_; }

 private:
  struct Nic {
    NicConfig cfg;
    sim::Time tx_free = 0;  // earliest time TX can start a new message
    sim::Time rx_free = 0;
    NicStats stats;
  };
  struct Attached {
    Endpoint* endpoint = nullptr;
    NicId nic = -1;
  };

  /// TX-serialize at src; returns the wire-departure completion time.
  sim::Time tx_serialize(NicId nic, std::size_t bytes,
                         std::size_t payload_bytes);
  /// Walk the topology path: per-link loss, FIFO serialization and
  /// propagation. Returns the fabric-exit time, or -1 when a link dropped
  /// the message (already accounted).
  sim::Time traverse_path(NicId src_nic, NicId dst_nic, sim::Time departure,
                          std::size_t bytes, std::size_t payload_bytes,
                          int tenant);
  /// Schedule arrival/RX/delivery of a message departing at `departure`.
  /// `bytes`/`payload_bytes` are msg's sizes, computed once by the caller
  /// (multicast delivers the same message to many destinations).
  void deliver(EndpointId src, EndpointId dst, MessagePtr msg,
               sim::Time departure, std::size_t bytes,
               std::size_t payload_bytes);
  /// True when `nic` sits inside a flap window at time `t`.
  bool nic_down(NicId nic, sim::Time t) const;

  sim::Simulator& sim_;
  std::unique_ptr<Topology> topo_;
  sim::Time latency_;  // IdealSwitch one-way latency (0 for custom fabrics)
  sim::Rng drop_rng_;
  double loss_rate_ = 0.0;
  LossProcess fabric_loss_;
  std::uint64_t total_dropped_ = 0;
  struct NicFlap {
    NicId nic = -1;
    sim::Time from = 0;
    sim::Time until = 0;
  };
  std::vector<NicFlap> nic_flaps_;  // few entries; linear scan when non-empty
  telemetry::Tracer* tracer_ = nullptr;
  std::vector<bool> link_lane_named_;  // tracer lane names, set lazily
  std::vector<Nic> nics_;
  std::vector<Attached> endpoints_;
  /// Tenancy: empty weights = single-tenant fast path. tenant_of_ is
  /// indexed by EndpointId (grown on attach, default tenant 0).
  std::vector<double> tenant_weights_;
  std::vector<int> tenant_of_;
};

}  // namespace omr::net
