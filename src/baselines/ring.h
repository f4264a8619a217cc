#pragma once

#include <vector>

#include "baselines/common.h"
#include "tensor/dense.h"

namespace omr::baselines {

/// Internal building blocks behind the registry: dispatch through
/// core::CollectiveRegistry ("ring", "recursive_doubling") instead of
/// calling these directly. Tests pinning golden baseline behavior are the
/// intended remaining callers.
namespace detail {

/// Bandwidth-optimal ring AllReduce (Patarasuk & Yuan), the algorithm NCCL
/// and Gloo default to and the paper's primary baseline. Two phases of N-1
/// steps each (reduce-scatter then allgather); segments are chunked so
/// transmission pipelines inside a step. Completion time follows
/// T_ring = 2(N-1)(alpha + S/(N*B)) (§3.4). Tensors are reduced in place.
BaselineStats ring_allreduce(std::vector<tensor::DenseTensor>& tensors,
                             const BaselineConfig& cfg);

/// Latency-optimal recursive-doubling AllReduce (dense): log2(N) exchange
/// steps of the full vector. Used by SparCML's dispatch for small inputs.
/// Requires a power-of-two worker count.
BaselineStats recursive_doubling_allreduce(
    std::vector<tensor::DenseTensor>& tensors, const BaselineConfig& cfg);

}  // namespace detail
}  // namespace omr::baselines
