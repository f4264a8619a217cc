#pragma once

#include <vector>

#include "baselines/common.h"
#include "tensor/coo.h"

namespace omr::baselines {

/// Which stack AGsparse runs on. The NCCL flavour is zero-copy (GPU/RDMA);
/// the Gloo flavour models PyTorch's TCP implementation, which pays a
/// host-side copy per received byte (§6.1.2 shows Gloo consistently slower).
enum class AgStack { kNccl, kGloo };

/// Internal building blocks behind the registry ("agsparse",
/// "agsparse_gloo"); dispatch through core::CollectiveRegistry instead of
/// calling these directly.
namespace detail {

/// AllGather-based sparse AllReduce (PyTorch's strawman, §2.1): every
/// worker ring-allgathers all (key, value) pairs, then reduces locally.
/// Memory and time scale with N * nnz — no overlap elimination. Inputs are
/// COO; `result` receives the reduced sparse tensor (identical on every
/// worker). The local reduction is charged at detail::kReduceBandwidthBps
/// and Gloo's extra host copy at 6 GB/s.
BaselineStats agsparse_allreduce(const std::vector<tensor::CooTensor>& inputs,
                                 tensor::CooTensor& result,
                                 const BaselineConfig& cfg,
                                 AgStack stack = AgStack::kNccl);

/// The sum of sorted COO `inputs` (all of dim inputs.front().dim), adding
/// per key in worker order: the reduced tensor every sparse baseline
/// produces. Keys whose contributions cancel stay, with a zero sum.
tensor::CooTensor merge_in_worker_order(
    const std::vector<tensor::CooTensor>& inputs);

}  // namespace detail
}  // namespace omr::baselines
