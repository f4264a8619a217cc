#pragma once

#include <vector>

#include "baselines/common.h"
#include "tensor/coo.h"
#include "tensor/dense.h"

namespace omr::baselines {

/// Internal building blocks behind the registry ("ps", "ps_sparse",
/// "parallax"); dispatch through core::CollectiveRegistry instead of
/// calling these directly.
namespace detail {

/// Dense parameter-server AllReduce (BytePS-style): the tensor is sharded
/// across `n_servers` servers; every worker pushes each shard (chunked) to
/// its server, the server sums all N contributions per chunk, then pushes
/// the result chunk back to every worker. With colocated servers (BytePS's
/// default without spare machines — how the paper benchmarks it, Fig. 5)
/// servers share the worker NICs.
BaselineStats ps_dense_allreduce(std::vector<tensor::DenseTensor>& tensors,
                                 const BaselineConfig& cfg,
                                 std::size_t n_servers, bool colocated);

/// Sparse parameter-server AllReduce (the Parallax PS path): workers push
/// COO entries split by server key range; servers merge and push the merged
/// sparse ranges back. `result` receives the reduced tensor.
BaselineStats ps_sparse_allreduce(const std::vector<tensor::CooTensor>& inputs,
                                  tensor::CooTensor& result,
                                  const BaselineConfig& cfg,
                                  std::size_t n_servers, bool colocated);

/// Parallax oracle (§6.1.2): the paper mimics Parallax's runtime profiler
/// by measuring both the sparse-PS time and the dense-AllReduce time for a
/// tensor and charging the cheaper one. Returns that minimum.
BaselineStats parallax_allreduce(const std::vector<tensor::DenseTensor>& dense,
                                 const BaselineConfig& cfg);

}  // namespace detail
}  // namespace omr::baselines
