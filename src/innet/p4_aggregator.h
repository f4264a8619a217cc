#pragma once

#include <vector>

#include "core/engine.h"
#include "tensor/dense.h"

namespace omr::innet {

/// One-way worker <-> switch latency of the in-network fabric.
inline constexpr sim::Time kSwitchOneWayLatency = sim::microseconds(5);

/// In-network (P4 / Tofino) OmniReduce aggregator (§7, Fig. 18).
///
/// Differences from the server-based aggregator, all modelled here:
///  * the "aggregator NIC" is the switch data plane — full bisection
///    bandwidth (N x the worker line rate), so the switch never bottlenecks;
///  * results are replicated by the switch's multicast engine: one TX
///    serialization per result instead of N unicasts;
///  * slot arithmetic is fixed-point int32 with saturation at
///    core::kFixedPointScale (ASICs have no floating point) — inherited
///    SwitchML limitation;
///  * the per-packet payload is limited by the ASIC's register-access
///    budget: the paper evaluates 34-element and 256-element blocks.
struct P4Config {
  std::size_t block_size = 256;  // 34 mirrors the SwitchML-style budget
  double worker_bandwidth_bps = 10e9;
  std::size_t num_streams = 256;
  std::uint64_t seed = 1;
  /// Fabric shape. With n_racks > 1 the workers sit in racks under ToR
  /// switches and the aggregating switch is the rack-0 spine: remote
  /// workers' packets — and each multicast copy headed to a remote rack —
  /// pay store-and-forward serialization on the rack up/downlinks, so the
  /// multicast engine's single-TX advantage no longer hides the spine.
  std::size_t n_racks = 1;
  /// Spine oversubscription ratio (>= 1); only meaningful with n_racks > 1.
  double oversubscription = 1.0;
  /// Register slots the switch pipeline can dedicate to this job (0 =
  /// unlimited). The ASIC's SRAM is finite and shared — the multi-tenant
  /// Fabric partitions one pool across jobs; a single run is rejected
  /// up front (std::runtime_error) when its stream count cannot fit.
  std::size_t switch_slots = 0;
};

/// Run one AllReduce through the in-network aggregator. Tensors are reduced
/// in place and verified against the serial reference (the fixed-point
/// quantization error is within the engine's tolerance for gradient-scale
/// values).
core::RunStats run_allreduce_innet(std::vector<tensor::DenseTensor>& tensors,
                                   const P4Config& cfg);

}  // namespace omr::innet
