#include "baselines/sketch_reducer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "baselines/ring.h"
#include "tensor/coo.h"

namespace omr::baselines {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Exact h % d through one 128-bit multiply by a precomputed reciprocal:
/// the quotient estimate is at most 2 short, so the remainder needs at
/// most two corrections. They subtract a mask, not a conditional, which a
/// compiler may turn into a branch that mispredicts on random hashes.
struct ExactMod {
  explicit ExactMod(std::uint64_t divisor)
      : d(divisor), inv(~std::uint64_t{0} / divisor) {}
  std::uint64_t operator()(std::uint64_t h) const {
    const auto q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(h) * inv) >> 64);
    std::uint64_t r = h - q * d;
    r -= d & (std::uint64_t{0} - (r >= d));
    return r - (d & (std::uint64_t{0} - (r >= d)));
  }
  std::uint64_t d;
  std::uint64_t inv;
};

/// The packed buffer as the ring splits it: segment g is
/// [payload*g/N, payload*(g+1)/N). A counter's segment is one lookup in a
/// table of cells no longer than the shortest segment, then a short walk
/// (one step at most unless some segments are empty).
class Segments {
 public:
  Segments(std::size_t payload, std::size_t n)
      : shift_(static_cast<unsigned>(
            std::bit_width(std::max<std::size_t>(1, payload / n)) - 1)),
        begin_(n + 1) {
    for (std::size_t g = 0; g <= n; ++g) begin_[g] = payload * g / n;
    std::size_t g = 0;
    for (std::size_t c = 0; c < payload; c += std::size_t{1} << shift_) {
      while (begin_[g + 1] <= c) ++g;
      cell_.push_back(g);
    }
  }

  /// Ring segment (the owner whose buffer starts its fold) of counter c.
  std::size_t of(std::size_t c) const {
    std::size_t g = cell_[c >> shift_];
    while (begin_[g + 1] <= c) ++g;
    return g;
  }

 private:
  unsigned shift_;
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> cell_;
};

/// A row key is its counter's bucket shifted left by one, with the low bit
/// set for sign -1. Once the row is folded the key holds the candidate's
/// estimate for the row (its float bits), or, until the row's crowded
/// counters are folded, kCrowded | slot << 1 | sign bit.
constexpr std::uint64_t kCrowded = std::uint64_t{1} << 63;

/// Folds one sketch row at a time, writing each candidate's estimate for
/// the row over its key. Holds the per-row buffers: two `width`-bit sets
/// (counters seen, counters hit by more than one candidate), the crowded
/// counters' ranks, and their [slot][worker] sums.
class RowFolder {
  using Fold = void (*)(RowFolder&, std::uint64_t*, std::size_t);

  template <std::size_t... kN>
  static constexpr std::array<Fold, sizeof...(kN)> folds(
      std::index_sequence<kN...>) {
    return {[](RowFolder& f, std::uint64_t* keys, std::size_t row_base) {
      f.fold_candidates<kN>(keys, row_base);
    }...};
  }

 public:
  RowFolder(const std::vector<tensor::DenseTensor>& inputs,
            const Segments& segments,
            const std::vector<std::size_t>& candidate_blocks,
            std::size_t block, std::size_t width)
      : n_(inputs.size()),
        dim_(inputs.front().size()),
        block_(block),
        segments_(segments),
        candidate_blocks_(candidate_blocks),
        ring_(2 * n_),
        seen_((width + 63) / 64),
        crowded_(seen_.size()),
        rank_(seen_.size()) {
    // ring_ + g lists the workers in segment g's fold order.
    for (std::size_t w = 0; w < 2 * n_; ++w) {
      ring_[w] = inputs[w % n_].values().data();
    }
  }

  /// Replaces `keys` (one row's, for every candidate in index order) with
  /// the candidates' estimates; the row's counters start at `row_base`.
  void fold(std::uint64_t* keys, std::size_t candidates,
            std::size_t row_base) {
    // fold_candidates<N> for N = 1..16, so a lone counter's N values stay
    // in registers; entry 0 loops over a run-time worker count.
    static constexpr std::array<Fold, 17> kFolds =
        folds(std::make_index_sequence<17>());
    mark(keys, candidates);
    (n_ < kFolds.size() ? kFolds[n_] : kFolds[0])(*this, keys, row_base);
    for (std::size_t k = 0; k < candidates; ++k) {
      if ((keys[k] & kCrowded) == 0) continue;
      const float sign = (keys[k] & 1) != 0 ? -1.0f : 1.0f;
      keys[k] = std::bit_cast<std::uint32_t>(
          sign * merged_[(keys[k] & ~kCrowded) >> 1]);
    }
  }

 private:
  /// Marks the row's counters seen and crowded, and ranks the crowded ones:
  /// a crowded counter's slot is the number of crowded counters before it.
  void mark(const std::uint64_t* keys, std::size_t candidates) {
    std::fill(seen_.begin(), seen_.end(), 0);
    std::fill(crowded_.begin(), crowded_.end(), 0);
    for (std::size_t k = 0; k < candidates; ++k) {
      const std::size_t bucket = keys[k] >> 1;
      const std::uint64_t bit = std::uint64_t{1} << (bucket & 63);
      crowded_[bucket >> 6] |= seen_[bucket >> 6] & bit;
      seen_[bucket >> 6] |= bit;
    }
    std::size_t slots = 0;
    for (std::size_t j = 0; j < crowded_.size(); ++j) {
      rank_[j] = slots;
      slots += static_cast<std::size_t>(std::popcount(crowded_[j]));
    }
    sums_.assign(slots * n_, 0.0f);
    merged_.resize(slots);
  }

  /// One pass over the candidates in index order, reading each one's N
  /// values from the inputs. A lone counter's fold is 0 + s*v[g], plus
  /// s*v[w] for the other workers in ring order from its segment g, times
  /// s: the operations of the ring's fold, in registers. A crowded
  /// counter's per-worker sums gain s*v[w] in index order, and each is
  /// folded in ring order once the row ends.
  template <std::size_t kN>
  void fold_candidates(std::uint64_t* keys, std::size_t row_base) {
    const std::size_t n = kN != 0 ? kN : n_;
    const float* const* ring = ring_.data();
    std::size_t k = 0;
    for (const std::size_t b : candidate_blocks_) {
      const std::size_t last = std::min(dim_, (b + 1) * block_);
      for (std::size_t i = b * block_; i < last; ++i, ++k) {
        const std::uint64_t key = keys[k];
        const std::size_t bucket = key >> 1;
        const float sign = (key & 1) != 0 ? -1.0f : 1.0f;
        const std::uint64_t word = crowded_[bucket >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (bucket & 63);
        if ((word & bit) == 0) {
          const float* const* from = ring + segments_.of(row_base + bucket);
          float merged = 0.0f + sign * from[0][i];
          for (std::size_t j = 1; j < n; ++j) merged += sign * from[j][i];
          keys[k] = std::bit_cast<std::uint32_t>(sign * merged);
        } else {
          const std::size_t slot =
              rank_[bucket >> 6] +
              static_cast<std::size_t>(std::popcount(word & (bit - 1)));
          float* acc = sums_.data() + slot * n;
          for (std::size_t w = 0; w < n; ++w) acc[w] += sign * ring[w][i];
          keys[k] = kCrowded | slot << 1 | (key & 1);
        }
      }
    }
    std::size_t slot = 0;
    for (std::size_t j = 0; j < crowded_.size(); ++j) {
      for (std::uint64_t bits = crowded_[j]; bits != 0; bits &= bits - 1) {
        const std::size_t bucket =
            j * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const std::size_t g = segments_.of(row_base + bucket);
        const float* acc = sums_.data() + slot * n;
        float merged = acc[g];
        for (std::size_t w = g + 1; w < n; ++w) merged += acc[w];
        for (std::size_t w = 0; w < g; ++w) merged += acc[w];
        merged_[slot++] = merged;
      }
    }
  }

  std::size_t n_;
  std::size_t dim_;
  std::size_t block_;
  const Segments& segments_;
  const std::vector<std::size_t>& candidate_blocks_;
  std::vector<const float*> ring_;
  std::vector<std::uint64_t> seen_;
  std::vector<std::uint64_t> crowded_;
  std::vector<std::size_t> rank_;
  std::vector<float> sums_;
  std::vector<float> merged_;
};

/// Stable median: the middle element of `v` after a stable sort. Insertion
/// sort, as std::sort itself does below 16 elements, so ties between +0 and
/// -0 resolve identically. Three rows (the default) take the same three
/// compare-exchanges without branches: insertion sort's third comparison
/// only happens after its second swapped, and is a no-op otherwise.
float stable_median(float* v, std::size_t n) {
  if (n == 3) {
    const float lo = v[1] < v[0] ? v[1] : v[0];
    const float hi = v[1] < v[0] ? v[0] : v[1];
    const float mid = v[2] < hi ? v[2] : hi;
    return mid < lo ? lo : mid;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const float x = v[i];
    std::size_t j = i;
    for (; j > 0 && x < v[j - 1]; --j) v[j] = v[j - 1];
    v[j] = x;
  }
  return v[n / 2];
}

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
  for (const auto& t : inputs) {
    if (t.size() != dim) throw std::invalid_argument("tensor size mismatch");
  }
  if (dim > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("sketch input exceeds 2^32 elements");
  }
  const std::size_t rows = opts.rows;
  const std::size_t block = std::max<std::size_t>(1, opts.block_elements);
  const std::size_t n_blocks = (dim + block - 1) / block;

  // One pass over the blocks finds the union support. Each block's
  // non-zeros are counted per worker; every index of an occupied block is a
  // recovery candidate (a superset of every worker's non-zeros). Only the
  // union support's size enters the wire format (the per-block occupancy
  // travels with the sketch); which blocks are occupied is local
  // bookkeeping.
  std::vector<std::size_t> candidate_blocks;
  std::vector<std::size_t> nnz(n, 0);
  std::size_t union_nnz = 0;
  std::size_t candidates = 0;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t first = b * block;
    const std::size_t last = std::min(dim, first + block);
    std::size_t block_union = 0;
    for (std::size_t i = first; i < last; i += 64) {
      const std::size_t len = std::min<std::size_t>(64, last - i);
      std::uint64_t any = 0;
      for (std::size_t w = 0; w < n; ++w) {
        const std::uint64_t mask =
            tensor::nonzero_mask(inputs[w].values().data() + i, len);
        nnz[w] += static_cast<std::size_t>(std::popcount(mask));
        any |= mask;
      }
      block_union += static_cast<std::size_t>(std::popcount(any));
    }
    if (block_union == 0) continue;
    union_nnz += block_union;
    candidate_blocks.push_back(b);
    candidates += last - first;
  }
  const std::size_t max_nnz = *std::max_element(nnz.begin(), nnz.end());
  const std::size_t width = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::llround(
              opts.width_factor * static_cast<double>(union_nnz))));

  SketchResult out;
  out.sketch_width = width;
  out.payload_elements = rows * width + n_blocks;
  const std::size_t payload = out.payload_elements;
  if (payload > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("sketch payload exceeds 2^32 counters");
  }

  // Each worker's packed [sketch rows | block occupancy] buffer travels
  // through a dense ring AllReduce, which splits it into N segments.
  // Counter c of segment g is the left fold, over workers g, g+1, ...,
  // g+N-1 (mod N), of each worker's counter: the sum of sign * value over
  // the indices hashed to c, in index order. Adding every worker's value,
  // zero or not, is exact: a zero adds +-0, and adding +-0 changes no sum,
  // because a sum that starts at +0 is never -0 (an exact-zero sum rounds
  // to +0). So a worker that never touched a counter holds +0, which the
  // fold leaves unchanged. Occupancy sums to the contributing-worker count,
  // of which recovery only needs "> 0": candidate_blocks.
  //
  // Hash each candidate once per row, all rows in one pass: bucket and sign
  // come from one splitmix64 of (seed, row, index), low bits (mod width)
  // picking the bucket and bit 32 the sign. Row r's key for candidate k is
  // keys[r * candidates + k].
  const auto keys =
      std::make_unique_for_overwrite<std::uint64_t[]>(rows * candidates);
  const ExactMod bucket_of(width);
  {
    std::size_t k = 0;
    for (const std::size_t b : candidate_blocks) {
      const std::size_t last = std::min(dim, (b + 1) * block);
      for (std::size_t i = b * block; i < last; ++i, ++k) {
        const std::uint64_t index_hash =
            static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
        for (std::size_t r = 0; r < rows; ++r) {
          const std::uint64_t h =
              splitmix64(opts.seed ^ (r * 0x100000001b3ULL) ^ index_hash);
          keys[r * candidates + k] = bucket_of(h) << 1 | ((h >> 32 & 1) ^ 1);
        }
      }
    }
  }
  const Segments segments(payload, n);
  RowFolder folder(inputs, segments, candidate_blocks, block, width);
  for (std::size_t r = 0; r < rows; ++r) {
    folder.fold(keys.get() + r * candidates, candidates, r * width);
  }
  const BaselineStats ring = detail::ring_allreduce_schedule(payload, n, cfg);
  out.stats.total_tx_bytes = ring.total_tx_bytes;

  // Recover every candidate by the median-of-rows estimate (true zeros
  // inside occupied blocks come back as bounded noise — that is the
  // approximation the epsilon verification covers).
  out.result = tensor::DenseTensor(dim);
  std::vector<float> estimates(rows);
  std::size_t k = 0;
  for (const std::size_t b : candidate_blocks) {
    const std::size_t last = std::min(dim, (b + 1) * block);
    for (std::size_t i = b * block; i < last; ++i, ++k) {
      for (std::size_t r = 0; r < rows; ++r) {
        estimates[r] = std::bit_cast<float>(
            static_cast<std::uint32_t>(keys[r * candidates + k]));
      }
      out.result[i] = stable_median(estimates.data(), rows);
    }
  }

  // Charge sketch build (rows touches per local non-zero) and recovery
  // (rows probes per candidate) at memory bandwidth, serial with the ring.
  const double touch_bytes =
      static_cast<double>(max_nnz + candidates) *
      static_cast<double>(rows) * 4.0;
  out.stats.completion_time =
      ring.completion_time +
      sim::from_seconds(touch_bytes / detail::kReduceBandwidthBps);
  return out;
}

}  // namespace omr::baselines
