#include "baselines/sketch_reducer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "baselines/ring.h"

namespace omr::baselines {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Row-r hash of element index i: low bits pick the counter, bit 32 the
/// sign. Seeded identically on every worker (the hashes are part of the
/// collective's agreement, like the block size).
struct SketchHash {
  std::uint64_t seed;
  std::size_t width;
  std::uint64_t raw(std::size_t row, std::size_t i) const {
    return splitmix64(seed ^ (row * 0x100000001b3ULL) ^
                      (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL));
  }
  std::size_t bucket(std::size_t row, std::size_t i) const {
    return static_cast<std::size_t>(raw(row, i) % width);
  }
  float sign(std::size_t row, std::size_t i) const {
    return (raw(row, i) >> 32 & 1) != 0 ? 1.0f : -1.0f;
  }
};

}  // namespace

double sketch_error_bound(double reference_l2, std::size_t support,
                          std::size_t width) {
  const double ratio =
      static_cast<double>(support) / static_cast<double>(std::max<std::size_t>(
                                         1, width));
  return 1.5 * ratio * reference_l2 + 1e-6;
}

SketchResult sketch_allreduce(const std::vector<tensor::DenseTensor>& inputs,
                              const BaselineConfig& cfg,
                              const SketchOptions& opts) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  if (opts.rows == 0) throw std::invalid_argument("sketch needs >= 1 row");
  const std::size_t n = inputs.size();
  const std::size_t dim = inputs.front().size();
  const std::size_t block = std::max<std::size_t>(1, opts.block_elements);
  const std::size_t n_blocks = (dim + block - 1) / block;

  // Union support: which indices any worker contributes. Only its size
  // enters the wire format (the per-block occupancy travels with the
  // sketch); the index-level set is local bookkeeping.
  std::size_t union_nnz = 0;
  {
    std::vector<char> occupied(dim, 0);
    for (const auto& t : inputs) {
      for (std::size_t i = 0; i < dim; ++i) {
        if (t[i] != 0.0f && !occupied[i]) {
          occupied[i] = 1;
          ++union_nnz;
        }
      }
    }
  }
  const std::size_t width = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::llround(
              opts.width_factor * static_cast<double>(union_nnz))));
  SketchHash hash{opts.seed, width};

  SketchResult out;
  out.sketch_width = width;
  out.payload_elements = opts.rows * width + n_blocks;

  // Build each worker's packed [sketch rows | block occupancy] buffer.
  std::size_t max_nnz = 0;
  std::vector<tensor::DenseTensor> packed;
  packed.reserve(n);
  for (const auto& t : inputs) {
    tensor::DenseTensor buf(out.payload_elements);
    std::size_t nnz = 0;
    for (std::size_t i = 0; i < dim; ++i) {
      const float v = t[i];
      if (v == 0.0f) continue;
      ++nnz;
      for (std::size_t r = 0; r < opts.rows; ++r) {
        buf[r * width + hash.bucket(r, i)] += hash.sign(r, i) * v;
      }
      buf[opts.rows * width + i / block] = 1.0f;
    }
    max_nnz = std::max(max_nnz, nnz);
    packed.push_back(std::move(buf));
  }

  // Sketches are linear, so the dense ring AllReduce merges them exactly;
  // occupancy sums to the contributing-worker count (> 0 == occupied).
  BaselineStats ring = detail::ring_allreduce(packed, cfg);
  out.stats.total_tx_bytes = ring.total_tx_bytes;

  // Recover every index inside an occupied block by the median-of-rows
  // estimate (true zeros inside occupied blocks come back as bounded
  // noise — that is the approximation the epsilon verification covers).
  const tensor::DenseTensor& merged = packed.front();
  out.result = tensor::DenseTensor(dim);
  std::size_t candidates = 0;
  std::vector<float> est(opts.rows);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    if (merged[opts.rows * width + b] <= 0.5f) continue;
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(dim, lo + block);
    for (std::size_t i = lo; i < hi; ++i) {
      ++candidates;
      for (std::size_t r = 0; r < opts.rows; ++r) {
        est[r] = hash.sign(r, i) * merged[r * width + hash.bucket(r, i)];
      }
      std::sort(est.begin(), est.end());
      out.result[i] = est[opts.rows / 2];
    }
  }

  // Charge sketch build (rows touches per local non-zero) and recovery
  // (rows probes per candidate) at memory bandwidth, serial with the ring.
  const double touch_bytes =
      static_cast<double>(max_nnz + candidates) *
      static_cast<double>(opts.rows) * 4.0;
  out.stats.completion_time =
      ring.completion_time +
      sim::from_seconds(touch_bytes / opts.reduce_mem_bandwidth_Bps);
  return out;
}

}  // namespace omr::baselines
