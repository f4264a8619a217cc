#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "baselines/common.h"
#include "tensor/dense.h"

namespace omr::baselines {

/// S2-Reducer-style count-sketch AllReduce (Ge et al., "S2 Reducer"):
/// instead of gathering every worker's (key, value) pairs, each worker
/// folds its non-zero gradient entries into a count sketch (r rows of w
/// counters with signed hashing) plus a block-occupancy vector. Sketches
/// are linear, so a plain *dense* ring AllReduce over the packed
/// [sketch | occupancy] buffer merges them — volume is O(sketch) and
/// independent of the worker count, where AGsparse pays O(N * nnz).
/// Workers then recover the reduced value at every index inside an
/// occupied block by the median-of-rows count-sketch estimate. The result
/// is approximate: with m surviving entries hashed into w counters per
/// row, the recovered vector deviates from the truth by
/// ||estimate - f||_2 <~ (m/w) ||f||_2 (each entry's estimate is polluted
/// only when it collides in a majority of rows, so the L2 error shrinks
/// linearly as the sketch widens), and verification uses
/// sketch_error_bound rather than the exact tolerance. Max-abs error is
/// the wrong metric here: at any fixed m/w a few whole-entry collisions
/// survive the median, so the worst single entry stays O(||f||_inf)
/// no matter the width.
struct SketchOptions {
  /// Sketch rows (independent hash functions; estimates take the median).
  std::size_t rows = 3;
  /// Counters per row, as a multiple of the union non-zero count (min 16).
  double width_factor = 4.0;
  /// Hash seed shared by all workers (part of the collective's agreement).
  std::uint64_t seed = 1;
  /// Elements per occupancy block (matches the engine's block sparsity).
  std::size_t block_elements = 256;
};

struct SketchResult {
  BaselineStats stats;
  /// Recovered (approximate) reduction, identical on every worker.
  tensor::DenseTensor result;
  std::size_t sketch_width = 0;
  /// Floats on the wire per worker: rows * width + occupancy blocks.
  std::size_t payload_elements = 0;
};

/// Analytic L2-error bound used for epsilon verification:
/// ||estimate - f||_2 <= c * (support / width) * ||f||_2, where `support`
/// is the union non-zero count the sketch was sized from. The constant
/// c = 1.5 covers the median-of-rows collision variance with ~2x slack
/// over the measured error (scale-invariant: ~0.18 relative at the
/// default width_factor 4 from 4K to 512K elements), while still
/// rejecting a zeroed or sign-flipped result (relative error 1.0 / 2.0).
double sketch_error_bound(double reference_l2, std::size_t support,
                          std::size_t width);

/// Run the sketch AllReduce over the simulated fabric (the packed buffer
/// travels through the real simulated ring). Deterministic for fixed
/// (inputs, cfg, opts): hashing is seeded and the ring is the seeded
/// simulation.
SketchResult sketch_allreduce(const std::vector<tensor::DenseTensor>& inputs,
                              const BaselineConfig& cfg,
                              const SketchOptions& opts = {});

}  // namespace omr::baselines
