#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/cluster.h"
#include "net/network.h"
#include "net/topology.h"
#include "telemetry/report.h"

namespace omr::core {

/// Rack of worker `w` under `topo` (explicit assignment, or the default
/// contiguous fill: workers split into n_racks equal runs).
int worker_rack(const TopologySpec& topo, std::size_t w,
                std::size_t n_workers);

/// Rack of dedicated aggregator node `a` (explicit, or round-robin).
int aggregator_rack(const TopologySpec& topo, std::size_t a);

/// Rack of every NIC in engine add order: the n_workers worker NICs first,
/// then the dedicated aggregator NICs (colocated deployments add none).
/// Throws when the spec has no racks or explicit worker racks do not cover
/// exactly n_workers.
std::vector<int> resolve_nic_racks(const TopologySpec& topo,
                                   std::size_t n_workers,
                                   std::size_t n_dedicated_aggs);

/// Build the net::Topology every run path runs on. The ideal switch (the
/// default spec, bit-identical to the seed fabric) ignores the racks; a
/// two-tier fabric puts the i-th NIC added in rack rack_of_nic[i] and
/// gives each hop half of `one_way_latency`. Throws std::invalid_argument
/// on a negative latency or an impossible spine loss spec (see
/// apply_fabric_loss).
std::unique_ptr<net::Topology> make_topology(const TopologySpec& topo,
                                             sim::Time one_way_latency,
                                             std::vector<int> rack_of_nic);

/// Apply the fabric-level loss processes (legacy Bernoulli rate, optional
/// Gilbert-Elliott bursts) to a freshly built network. Throws
/// std::invalid_argument unless the rate is in [0, 1) and, for an enabled
/// chain, every probability is in [0, 1] and the chain cannot drop every
/// message forever (loss_good == 1, or loss_bad == 1 with
/// p_bad_to_good == 0): such runs would retransmit without end.
void apply_fabric_loss(net::Network& network, const FabricConfig& fabric);

/// Snapshot per-link counters into LinkReport rows (one per topology
/// link); empty for the ideal switch. `base` subtracts a previous
/// snapshot, yielding per-collective deltas for Session reports.
std::vector<telemetry::LinkReport> collect_link_reports(
    const net::Network& network,
    const std::vector<telemetry::LinkReport>* base = nullptr);

}  // namespace omr::core
