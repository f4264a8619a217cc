#pragma once

#include <vector>

#include "core/engine.h"
#include "tensor/dense.h"

namespace omr::core {

/// Effective per-GPU NVLink bandwidth for the local ring (bytes/s).
inline constexpr double kNvlinkBandwidthBps = 130e9;

/// Two-layer aggregation for multi-GPU servers (§5, Fig. 13/14): GPUs
/// inside a server first reduce over NVLink (NCCL), one GPU per server then
/// joins the inter-server OmniReduce, and the result is broadcast back over
/// NVLink. Note the first layer densifies: a block is non-zero for the
/// server if any of its GPUs has it non-zero, so inter-server sparsity is
/// the union sparsity.
struct HierarchicalStats {
  RunStats inter;               // inter-server OmniReduce run
  sim::Time intra_reduce = 0;   // local NVLink reduce (ring reduce-scatter+gather)
  sim::Time intra_broadcast = 0;
  sim::Time total = 0;
  bool verified = false;
  double max_error = 0.0;
};

/// `grads[server][gpu]` are the per-GPU gradients (all equal size). On
/// return every entry holds the global sum. The completion time is
/// intra-reduce + inter AllReduce + intra-broadcast.
HierarchicalStats run_hierarchical_allreduce(
    std::vector<std::vector<tensor::DenseTensor>>& grads, const Config& cfg,
    const ClusterSpec& cluster, bool verify = true);

}  // namespace omr::core
