#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "baselines/common.h"
#include "tensor/dense.h"

namespace omr::baselines {

/// Internal building blocks behind the registry: dispatch through
/// core::CollectiveRegistry ("ring") instead of calling these directly.
/// Tests pinning golden baseline behavior are the intended remaining
/// callers.
namespace detail {

/// The simulated cost of ring_allreduce over `n` ranks' `elements`-long
/// buffers, without the data: the same messages, completion time and wire
/// bytes. Segment g is [elements * g / n, elements * (g + 1) / n).
BaselineStats ring_allreduce_schedule(std::size_t elements, std::size_t n,
                                      const BaselineConfig& cfg);

/// Bandwidth-optimal ring AllReduce (Patarasuk & Yuan), the algorithm NCCL
/// and Gloo default to and the paper's primary baseline. Two phases of N-1
/// steps each (reduce-scatter then allgather); segments are chunked so
/// transmission pipelines inside a step. Completion time follows
/// T_ring = 2(N-1)(alpha + S/(N*B)) (§3.4). Tensors are reduced in place.
BaselineStats ring_allreduce(std::vector<tensor::DenseTensor>& tensors,
                             const BaselineConfig& cfg);

/// Variable-size ring AllGather of opaque byte payloads. Building block
/// for AGsparse, SparCML phase 2 and Ok-Topk. `payload_bytes[w]` is worker
/// w's contribution size; every worker ends holding all contributions.
BaselineStats ring_allgather_bytes(
    const std::vector<std::size_t>& payload_bytes, const BaselineConfig& cfg);

}  // namespace detail
}  // namespace omr::baselines
