#pragma once

#include <vector>

#include "baselines/common.h"
#include "tensor/coo.h"

namespace omr::baselines {

/// SparCML sparse AllReduce variants (Renggli et al., SC'19) — the two
/// split-allgather algorithms the paper benchmarks against (§6.1.2), plus
/// the latency-optimal recursive-doubling path and a cost-model dispatch.
///
/// SSAR_Split_allgather: (1) split the index space into N partitions, each
/// worker sends every partition's entries to its designated owner
/// (all-to-all), owners reduce; (2) concatenating ring AllGather of the
/// reduced sparse partitions. Representation stays sparse throughout.
///
/// DSAR_Split_allgather: identical phase 1, but an owner switches its
/// partition to the dense representation once the reduced non-zero count
/// exceeds rho = |partition| * c_v / (c_i + c_v) (i.e., half, with 4-byte
/// keys and values); phase 2 then gathers the cheaper representation.
enum class SparcmlVariant {
  kSsarSplitAllgather,
  kDsarSplitAllgather,
  kSsarRecursiveDoubling,  // small-input path: exchange + merge, log2(N) steps
};

/// Internal building blocks behind the registry ("sparcml",
/// "sparcml_ssar", "sparcml_dsar"); dispatch through
/// core::CollectiveRegistry instead of calling these directly.
namespace detail {

/// Run the chosen variant; `result` receives the reduced sparse tensor.
/// Phases are serialized (SparCML separates communication and reduction).
BaselineStats sparcml_allreduce(const std::vector<tensor::CooTensor>& inputs,
                                tensor::CooTensor& result,
                                const BaselineConfig& cfg,
                                SparcmlVariant variant);

/// SparCML's latency-bandwidth dispatch: recursive doubling for small
/// inputs (SSAR split-allgather when N is not a power of two, which
/// recursive doubling needs), split-allgather otherwise, DSAR when the
/// expected reduced density exceeds the sparse-representation break-even.
SparcmlVariant sparcml_choose_variant(std::size_t dim, std::size_t max_nnz,
                                      std::size_t n_workers);

}  // namespace detail
}  // namespace omr::baselines
