#include "baselines/sparcml.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/agsparse.h"
#include "baselines/ring.h"

namespace omr::baselines {

SparcmlVariant detail::sparcml_choose_variant(std::size_t dim, std::size_t max_nnz,
                                      std::size_t n_workers) {
  // Latency-bandwidth model: below ~4K pairs per worker the alpha terms
  // dominate and recursive doubling wins (sparse split-allgather when N is
  // not a power of two); otherwise split-allgather. If the union is
  // expected to exceed the sparse break-even (rho = dim/2 with 4-byte
  // keys/values), switch representations dynamically (DSAR).
  if (max_nnz * 8 < 32 * 1024) {
    return (n_workers & (n_workers - 1)) == 0
               ? SparcmlVariant::kSsarRecursiveDoubling
               : SparcmlVariant::kSsarSplitAllgather;
  }
  const double expected_union =
      static_cast<double>(dim) *
      (1.0 - std::pow(1.0 - static_cast<double>(max_nnz) / dim,
                      static_cast<double>(n_workers)));
  if (expected_union > static_cast<double>(dim) / 2.0) {
    return SparcmlVariant::kDsarSplitAllgather;
  }
  return SparcmlVariant::kSsarSplitAllgather;
}

BaselineStats detail::sparcml_allreduce(
    const std::vector<tensor::CooTensor>& inputs,
                                tensor::CooTensor& result,
                                const BaselineConfig& cfg,
                                SparcmlVariant variant) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  const std::size_t n = inputs.size();
  const std::size_t dim = inputs.front().dim;
  BaselineStats stats;

  // The reduced result (identical across workers): computed once for
  // verification and payload sizing.
  result = merge_in_worker_order(inputs);

  if (variant == SparcmlVariant::kSsarRecursiveDoubling) {
    // log2(N) exchange-and-merge steps; payload grows toward the union.
    // Before the step with distance d, rank r holds the merge of the
    // aligned group of d ranks containing it; only its size matters.
    if ((n & (n - 1)) != 0) {
      throw std::invalid_argument("recursive doubling needs power-of-two N");
    }
    std::size_t merge_pairs = 0;
    std::vector<std::size_t> held(n);
    for (std::size_t r = 0; r < n; ++r) held[r] = inputs[r].nnz();
    tensor::SparseRangeAccumulator group;
    sim::Time t = 0;
    for (std::size_t d = 1; d < n; d *= 2) {
      // All pairs exchange concurrently; the step's time is set by the
      // largest payload in flight.
      std::size_t max_bytes = 0;
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t bytes = held[r] * 8;
        max_bytes = std::max(max_bytes, bytes);
        stats.total_tx_bytes += bytes + kHeaderBytes;
      }
      t += exchange_step_time(max_bytes, cfg);
      for (std::size_t r = 0; r < n; ++r) merge_pairs += held[r] + held[r ^ d];
      for (std::size_t first = 0; first < n; first += 2 * d) {
        group.reset(0, static_cast<std::int64_t>(dim));
        for (std::size_t r = first; r < first + 2 * d; ++r) {
          group.add(inputs[r]);
        }
        for (std::size_t r = first; r < first + 2 * d; ++r) {
          held[r] = group.size();
        }
      }
    }
    stats.completion_time =
        t + sim::from_seconds(static_cast<double>(merge_pairs / n) * 8.0 /
                              kReduceBandwidthBps);
    return stats;
  }

  // ---- Phase 1: split + all-to-all to partition owners -------------------
  // Owner p reduces partition [dim*p/N, dim*(p+1)/N): the result's slice.
  std::vector<std::vector<std::size_t>> bytes(n, std::vector<std::size_t>(n, 0));
  std::vector<std::size_t> reduced_nnz(n);
  std::size_t merge_pairs_max = 0;
  for (std::size_t p = 0; p < n; ++p) {
    const std::int64_t lo = static_cast<std::int64_t>(dim * p / n);
    const std::int64_t hi = static_cast<std::int64_t>(dim * (p + 1) / n);
    std::size_t merge_pairs = 0;
    for (std::size_t w = 0; w < n; ++w) {
      const auto [begin, end] = tensor::coo_key_range(inputs[w], lo, hi);
      merge_pairs += end - begin;
      if (w != p) bytes[w][p] = (end - begin) * 8;
    }
    const auto [begin, end] = tensor::coo_key_range(result, lo, hi);
    reduced_nnz[p] = end - begin;
    merge_pairs_max = std::max(merge_pairs_max, merge_pairs);
  }
  stats = all_to_all_bytes(bytes, cfg);
  // Owners reduce after gathering (serial with communication, §2.1).
  stats.completion_time +=
      sim::from_seconds(static_cast<double>(merge_pairs_max) * 8.0 * 2.0 /
                        kReduceBandwidthBps);

  // ---- Phase 2: concatenating allgather of reduced partitions ------------
  std::vector<std::size_t> phase2(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t range =
        dim * (p + 1) / n - dim * p / n;
    const std::size_t sparse_bytes = reduced_nnz[p] * 8;
    if (variant == SparcmlVariant::kDsarSplitAllgather &&
        reduced_nnz[p] > range / 2) {
      phase2[p] = range * 4;  // switched to dense representation
    } else {
      phase2[p] = sparse_bytes;
    }
  }
  stats += ring_allgather_bytes(phase2, cfg);
  return stats;
}

}  // namespace omr::baselines
