#pragma once

#include <memory>
#include <vector>

#include "core/aggregator.h"
#include "core/config.h"
#include "core/stream_layout.h"
#include "core/worker.h"
#include "net/network.h"
#include "sim/time.h"
#include "telemetry/telemetry.h"

namespace omr::core {

class FaultController;

/// Optional per-job instrumentation threaded through the wiring. Both
/// pointers are non-owning and may be null (the default: the plain
/// protocol path, byte-identical to an unwired run).
struct WiringOptions {
  telemetry::Tracer* tracer = nullptr;
  FaultController* faults = nullptr;
};

/// One job's protocol endpoints on a fabric: the workers and aggregators
/// plus their endpoint ids, in construction order. The cluster (NICs,
/// topology, loss) is built separately — several ProtocolWirings can share
/// one Network, which is what the multi-tenant Fabric does.
struct ProtocolWiring {
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::unique_ptr<Aggregator>> aggregators;
  std::vector<net::EndpointId> worker_eps;
  std::vector<net::EndpointId> agg_eps;
};

/// Construct and attach one job's workers and aggregators onto existing
/// NICs: workers first (ids 0..n-1 in NIC order), then aggregators —
/// each bound to the worker endpoints and registered with the fault
/// controller when one is given. Exactly the seed engine's wiring order,
/// so endpoint ids (and therefore runs) are byte-identical to it.
/// Stream routing is separate (see shard_streams): a RunContext wires once
/// and re-shards per collective; Fabric jobs re-shard per step.
ProtocolWiring wire_protocol(const Config& cfg, net::Network& net,
                             const std::vector<net::NicId>& worker_nics,
                             const std::vector<net::NicId>& agg_nics,
                             const WiringOptions& opts = {});

/// Shard the layout's streams round-robin across the aggregator nodes
/// (§3: each node owns a disjoint shard of blocks), registering each
/// stream's slot with its owner. Returns the per-stream owner endpoint
/// table workers bind against.
std::vector<net::EndpointId> shard_streams(
    const StreamLayout& layout,
    std::vector<std::unique_ptr<Aggregator>>& aggregators,
    const std::vector<net::EndpointId>& agg_eps);

/// Algorithm 2's retransmission timeout for one collective and the slot
/// round it was sized from. Both stay 0 for a run without loss recovery.
struct RetransmitTimeout {
  sim::Time rto = 0;
  sim::Time round_model = 0;  // T_round of the slowest aggregator node
};

/// Size Algorithm 2's timer for one collective (§5): RTO =
/// max(cfg.retransmit_timeout, perfmodel::kRtoPerRound * T_round), where
/// T_round is perfmodel::slot_round for the aggregator node with the
/// slowest round once `layout` is sharded round-robin over `agg_nics` (as
/// shard_streams does) and results go to the workers on `worker_nics`.
/// NIC speeds, rack uplinks and path latencies come from `net`. Computes
/// nothing when cfg.loss_recovery is off.
RetransmitTimeout size_retransmit_timeout(
    const Config& cfg, const StreamLayout& layout, net::Network& net,
    const std::vector<net::NicId>& worker_nics,
    const std::vector<net::NicId>& agg_nics);

}  // namespace omr::core
