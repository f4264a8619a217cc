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
/// Stream ownership is per collective (see CollectivePlan): a RunContext
/// wires once and plans each collective; Fabric jobs plan each step.
ProtocolWiring wire_protocol(const Config& cfg, net::Network& net,
                             const std::vector<net::NicId>& worker_nics,
                             const std::vector<net::NicId>& agg_nics,
                             const WiringOptions& opts = {});

/// Algorithm 2's retransmission timeout for one collective and the slot
/// round it was sized from. Both stay 0 for a run without loss recovery.
struct RetransmitTimeout {
  sim::Time rto = 0;
  sim::Time round_model = 0;  // T_round of the slowest aggregator node
};

/// Size Algorithm 2's timer for one collective (§5): RTO =
/// max(cfg.retransmit_timeout, perfmodel::kRtoPerRound * T_round), where
/// T_round is perfmodel::slot_round for the aggregator node with the
/// slowest round when aggregator a (on agg_nics[a]) owns streams_on_agg[a]
/// of the layout's streams and results go to the workers on `worker_nics`.
/// NIC speeds, rack uplinks and path latencies come from `net`. Computes
/// nothing when cfg.loss_recovery is off.
RetransmitTimeout size_retransmit_timeout(
    const Config& cfg, const StreamLayout& layout,
    const std::vector<std::size_t>& streams_on_agg, net::Network& net,
    const std::vector<net::NicId>& worker_nics,
    const std::vector<net::NicId>& agg_nics);

}  // namespace omr::core
