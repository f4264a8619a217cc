#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.h"

namespace omr::serve {

struct ZipfTable;  // traffic.cpp

/// Deterministic Zipf(alpha) sampler over [0, n): the TrafficGen key-draw
/// primitive. Exact inverse-CDF over a cumulative weight table, valid for
/// any alpha >= 0 — unlike the YCSB rejection-free approximation, which is
/// only derived for theta < 1. Draws rank 0 as the hottest key. alpha = 0
/// degenerates to uniform via Rng::next_below (no table). Bit-reproducible:
/// sim::Rng only, and the table depends only on (n, alpha).
///
/// The table is immutable and shared: generators of one (n, alpha) shape
/// hold the same copy, which a small process-wide memo (at most
/// kMaxSharedTables shapes, mutex-guarded, oldest evicted first) keeps
/// alive between jobs, so only the first generator of a shape pays the
/// O(n) pow() build. A guide table over equal slices of the total weight
/// (Chen–Asau indexed search) narrows each draw to a few entries, so a
/// draw is O(1) expected; it returns exactly the upper_bound over the full
/// table for the same uniform variate.
class ZipfGenerator {
 public:
  /// Shapes the memo holds at once.
  static constexpr std::size_t kMaxSharedTables = 4;

  /// Throws std::invalid_argument for n = 0, a negative or NaN alpha, and
  /// alpha > 0 over more than 2^32 keys.
  ZipfGenerator(std::size_t n, double alpha);

  /// Next key rank in [0, n), consuming exactly one rng draw.
  std::uint64_t next(sim::Rng& rng) const;

  /// The rank next() returns when its variate times the total weight is u
  /// (alpha > 0 only): the first rank whose cumulative weight exceeds u,
  /// clamped to n - 1. Defined for any u; next() only passes u in
  /// [0, total weight].
  std::uint64_t rank_at(double u) const;

  std::size_t n() const { return n_; }
  double alpha() const { return alpha_; }

  /// Shapes the memo holds now (at most kMaxSharedTables).
  static std::size_t shared_tables();

 private:
  std::size_t n_;
  double alpha_;
  std::shared_ptr<const ZipfTable> table_;  // null when uniform
};

}  // namespace omr::serve
