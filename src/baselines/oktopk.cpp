#include "baselines/oktopk.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "baselines/ring.h"

namespace omr::baselines {

namespace {

std::size_t ceil_log2(std::size_t n) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  return bits;
}

bool power_of_two(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

tensor::CooTensor filter_by_magnitude(const tensor::CooTensor& t,
                                      double threshold) {
  tensor::CooTensor out;
  out.dim = t.dim;
  for (std::size_t i = 0; i < t.nnz(); ++i) {
    if (std::abs(static_cast<double>(t.values[i])) >= threshold) {
      out.keys.push_back(t.keys[i]);
      out.values.push_back(t.values[i]);
    }
  }
  return out;
}

}  // namespace

OkTopkResult oktopk_allreduce(const std::vector<tensor::CooTensor>& inputs,
                              const BaselineConfig& cfg,
                              const OkTopkOptions& opts) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  const std::size_t n = inputs.size();
  const std::size_t dim = inputs.front().dim;
  OkTopkResult out;

  // ---- Threshold: exact k-th largest magnitude across all workers --------
  std::size_t total_entries = 0;
  std::size_t max_nnz = 0;
  for (const auto& t : inputs) {
    total_entries += t.nnz();
    max_nnz = std::max(max_nnz, t.nnz());
  }
  if (opts.k > 0 && opts.k < total_entries) {
    std::vector<double> mags;
    mags.reserve(total_entries);
    for (const auto& t : inputs) {
      for (float v : t.values) mags.push_back(std::abs(static_cast<double>(v)));
    }
    std::nth_element(mags.begin(), mags.begin() + (opts.k - 1), mags.end(),
                     std::greater<double>());
    out.threshold = mags[opts.k - 1];
  }
  // With no threshold every entry survives and the inputs are used as is.
  std::vector<tensor::CooTensor> filtered;
  if (out.threshold > 0.0) {
    for (const auto& t : inputs) {
      filtered.push_back(filter_by_magnitude(t, out.threshold));
    }
  }
  const std::vector<tensor::CooTensor>& kept =
      out.threshold > 0.0 ? filtered : inputs;

  BaselineStats& stats = out.stats;
  // Threshold-estimation round: log2(N) recursive-doubling exchanges of a
  // fixed 256-bin magnitude histogram (the paper's sampled estimation; the
  // threshold itself is idealized to the exact order statistic above).
  const std::size_t hist_bytes = 256 * 8;
  const std::size_t est_rounds = ceil_log2(n);
  stats.completion_time = static_cast<sim::Time>(est_rounds) *
                          detail::exchange_step_time(hist_bytes, cfg);
  stats.total_tx_bytes = static_cast<std::uint64_t>(n) * est_rounds *
                         (hist_bytes + detail::kHeaderBytes);
  // Local selection scan (one magnitude pass over the candidate entries).
  stats.completion_time += sim::from_seconds(
      static_cast<double>(max_nnz) * 4.0 / detail::kReduceBandwidthBps);

  // ---- Balanced partitioning: equal survivor counts per owner ------------
  // Boundaries derive from the survivors' key histogram, so each owner
  // receives ~total/N pairs regardless of where the non-zeros cluster.
  // Bound p is the smallest surviving key whose run (its copies in the
  // sorted multiset of survivors) starts at or after total*p/N, so a
  // boundary never splits one key across owners.
  std::vector<std::uint32_t> key_count(dim, 0);
  std::size_t total = 0;
  for (const auto& kt : kept) {
    for (std::int32_t k : kt.keys) ++key_count[static_cast<std::size_t>(k)];
    total += kt.nnz();
  }
  std::vector<std::int32_t> bounds(n + 1, static_cast<std::int32_t>(dim));
  bounds[0] = 0;
  {
    std::size_t p = 1;
    std::size_t run_start = 0;
    for (std::size_t k = 0; k < dim && p < n; ++k) {
      if (key_count[k] == 0) continue;
      while (p < n && run_start >= total * p / n) {
        bounds[p++] = static_cast<std::int32_t>(k);
      }
      run_start += key_count[k];
    }
  }

  // ---- All-to-all: route each partition's survivors to its owner ---------
  // Owners merge their partition in worker order; the partitions are
  // disjoint and ascending, so the gathered result is their concatenation.
  std::vector<std::vector<std::size_t>> bytes(n,
                                              std::vector<std::size_t>(n, 0));
  std::vector<std::size_t> payload(n);
  out.result.dim = dim;
  out.partition_pairs.assign(n, 0);
  std::size_t merge_pairs_max = 0;
  tensor::SparseRangeAccumulator acc;
  for (std::size_t p = 0; p < n; ++p) {
    acc.reset(bounds[p], bounds[p + 1]);
    std::size_t merge_pairs = 0;
    for (std::size_t w = 0; w < n; ++w) {
      const auto [begin, end] =
          tensor::coo_key_range(kept[w], bounds[p], bounds[p + 1]);
      merge_pairs += end - begin;
      if (w != p) bytes[w][p] = (end - begin) * 8;
      acc.add(kept[w].keys.data() + begin, kept[w].values.data() + begin,
              end - begin);
    }
    payload[p] = acc.size() * 8;
    acc.emit(out.result);
    out.partition_pairs[p] = merge_pairs;
    merge_pairs_max = std::max(merge_pairs_max, merge_pairs);
  }
  stats += detail::all_to_all_bytes(bytes, cfg);
  // Owners merge their received contributions (same rate as SparCML).
  stats.completion_time +=
      sim::from_seconds(static_cast<double>(merge_pairs_max) * 8.0 * 2.0 /
                        detail::kReduceBandwidthBps);

  // ---- Allgather of the reduced partitions -------------------------------
  // Latency-optimal recursive doubling when N is a power of two (payloads
  // double each step, log2(N) alpha terms); ring allgather otherwise.
  if (power_of_two(n) && n > 1) {
    std::vector<std::size_t> held = payload;
    for (std::size_t d = 1; d < n; d *= 2) {
      std::size_t max_held = 0;
      for (std::size_t r = 0; r < n; ++r) {
        max_held = std::max(max_held, held[r]);
        stats.total_tx_bytes += held[r] + detail::kHeaderBytes;
      }
      stats.completion_time += detail::exchange_step_time(max_held, cfg);
      std::vector<std::size_t> next(n);
      for (std::size_t r = 0; r < n; ++r) next[r] = held[r] + held[r ^ d];
      held = std::move(next);
    }
  } else if (n > 1) {
    stats += detail::ring_allgather_bytes(payload, cfg);
  }
  return out;
}

}  // namespace omr::baselines
