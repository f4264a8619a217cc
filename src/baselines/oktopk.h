#pragma once

#include <cstddef>
#include <vector>

#include "baselines/common.h"
#include "tensor/coo.h"

namespace omr::baselines {

/// Ok-Topk (Li et al., PPoPP'22 "Near-Optimal Sparse Allreduce"): a
/// balanced top-k split-allreduce. Each worker keeps only entries whose
/// magnitude clears a globally agreed threshold; the index space is split
/// into per-owner partitions *balanced by surviving-entry count* (not by
/// index range size, which skews under clustered sparsity); workers send
/// each partition's survivors to its owner (all-to-all); owners merge and
/// a latency-optimal recursive-doubling allgather distributes the reduced
/// partitions. Total volume is O(k) per worker versus AGsparse's O(N*k).
struct OkTopkOptions {
  /// Global entry budget: keep (about) the `k` largest-magnitude entries
  /// across all workers. 0 keeps every non-zero entry — the schedule is
  /// then exact and verifiable against reference_reduce.
  std::size_t k = 0;
};

struct OkTopkResult {
  BaselineStats stats;
  /// Reduced tensor: at each surviving key, the sum over the workers whose
  /// contribution cleared the threshold (== the exact sum when k == 0).
  tensor::CooTensor result;
  /// Magnitude threshold applied (0 when k == 0).
  double threshold = 0.0;
  /// Surviving entries routed to each owner; balanced partitioning keeps
  /// max/mean close to 1 (tested).
  std::vector<std::size_t> partition_pairs;
};

/// Run Ok-Topk over the simulated fabric. Deterministic: the threshold is
/// the exact k-th largest magnitude (idealizing the paper's sampled
/// estimation, which the estimation round's cost still accounts for) and
/// partition boundaries derive from the survivors' key histogram.
OkTopkResult oktopk_allreduce(const std::vector<tensor::CooTensor>& inputs,
                              const BaselineConfig& cfg,
                              const OkTopkOptions& opts = {});

}  // namespace omr::baselines
