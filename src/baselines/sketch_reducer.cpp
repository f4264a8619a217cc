#include "baselines/sketch_reducer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

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

/// Counters per chunk times workers: a chunk's [counter][worker] scratch
/// (512 KiB) stays in L2 beside the value rows its probes pull in.
constexpr std::size_t kScratchFloats = std::size_t{1} << 17;

/// How many probes ahead the chunk loop prefetches a value row.
constexpr std::ptrdiff_t kPrefetchAhead = 16;

/// The packed buffer as the ring splits it: segment g is
/// [payload*g/N, payload*(g+1)/N), cut into chunks of 2^shift counters
/// from its start. Chunk k of segment g has id g * per_segment + k.
class Chunking {
 public:
  Chunking(std::size_t payload, std::size_t n, unsigned shift)
      : shift_(shift), seg_begin_(n + 1) {
    const std::size_t size = std::size_t{1} << shift;
    std::size_t longest = 0;
    for (std::size_t g = 0; g <= n; ++g) {
      seg_begin_[g] = payload * g / n;
      if (g > 0) longest = std::max(longest, seg_begin_[g] - seg_begin_[g - 1]);
    }
    per_segment_ = std::max<std::size_t>(1, (longest + size - 1) / size);
    for (std::size_t g = 0; g < n; ++g) {
      for (std::size_t k = 0; k < per_segment_; ++k) {
        chunk_begin_.push_back(seg_begin_[g] + k * size);
      }
    }
    // Segment of each chunk-aligned cell's first counter: chunk_of's
    // starting guess.
    std::size_t g = 0;
    for (std::size_t c = 0; c < payload; c += size) {
      while (seg_begin_[g + 1] <= c) ++g;
      cell_segment_.push_back(g);
    }
  }

  std::size_t chunks() const { return chunk_begin_.size(); }
  /// Ring segment (the owner whose buffer starts its fold) of chunk `id`.
  std::size_t segment(std::size_t id) const { return id / per_segment_; }
  std::size_t chunk_begin(std::size_t id) const { return chunk_begin_[id]; }

  /// Id of the chunk holding counter c.
  std::size_t chunk_of(std::size_t c) const {
    std::size_t g = cell_segment_[c >> shift_];
    while (seg_begin_[g + 1] <= c) ++g;
    return g * per_segment_ + ((c - seg_begin_[g]) >> shift_);
  }

 private:
  unsigned shift_;
  std::vector<std::size_t> seg_begin_;
  std::size_t per_segment_ = 1;
  std::vector<std::size_t> chunk_begin_;
  std::vector<std::size_t> cell_segment_;
};

/// One candidate's probe into the current row: its counter's offset in
/// its chunk, shifted left by one, with the low bit set for sign -1.
struct Probe {
  std::uint32_t candidate;
  std::uint32_t offset_sign;
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

  // One pass over the blocks finds the union support and transposes it.
  // Each block's non-zeros are counted per worker first; every index of an
  // occupied block is a recovery candidate (a superset of every worker's
  // non-zeros) and gets one row of `cand`: its N worker values, then its
  // `rows` row estimates. Only the union support's size enters the wire
  // format (the per-block occupancy travels with the sketch); which blocks
  // are occupied is local bookkeeping.
  const std::size_t stride = n + rows;
  const auto cand = std::make_unique_for_overwrite<float[]>(dim * stride);
  std::vector<std::size_t> candidate_blocks;
  std::vector<std::size_t> nnz(n, 0);
  std::vector<const float*> src(n);
  for (std::size_t w = 0; w < n; ++w) src[w] = inputs[w].values().data();
  std::size_t union_nnz = 0;
  std::size_t candidates = 0;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t first = b * block;
    const std::size_t last = std::min(dim, first + block);
    bool occupied = false;
    for (std::size_t w = 0; w < n; ++w) {
      std::size_t count = 0;
      for (std::size_t i = first; i < last; i += 64) {
        count += static_cast<std::size_t>(std::popcount(tensor::nonzero_mask(
            src[w] + i, std::min<std::size_t>(64, last - i))));
      }
      nnz[w] += count;
      occupied = occupied || count > 0;
    }
    if (!occupied) continue;
    float* row = cand.get() + candidates * stride;
    for (std::size_t i = first; i < last; ++i, row += stride) {
      bool any = false;
      for (std::size_t w = 0; w < n; ++w) {
        row[w] = src[w][i];
        any = any || row[w] != 0.0f;
      }
      union_nnz += any;
    }
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
  // the indices hashed to c, in index order. Counters are built one row
  // and one chunk at a time, in a [counter][worker] scratch, from the
  // candidates' value rows. Adding every worker's value, zero or not, is
  // exact: a zero adds +-0, and adding +-0 changes no sum, because a sum
  // that starts at +0 is never -0 (an exact-zero sum rounds to +0). So a
  // worker that never touched a counter holds +0, which the fold leaves
  // unchanged. Occupancy sums to the contributing-worker count, of which
  // recovery only needs "> 0": candidate_blocks.
  const unsigned shift = static_cast<unsigned>(std::bit_width(
      std::max<std::size_t>(1, kScratchFloats / n)) - 1);
  const Chunking chunking(payload, n, shift);
  const std::size_t n_chunks = chunking.chunks();

  // Hash each candidate once per row, all rows in one pass: bucket and sign
  // come from one splitmix64 of (seed, row, index), low bits (mod width)
  // picking the bucket and bit 32 the sign. Row r's key for candidate k is
  // keys[r * candidates + k], and start[r] counts row r's probes per chunk.
  const auto keys =
      std::make_unique_for_overwrite<std::uint64_t[]>(rows * candidates);
  std::vector<std::vector<std::size_t>> start(
      rows, std::vector<std::size_t>(n_chunks + 1, 0));
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
          const std::size_t c = r * width + bucket_of(h);
          const std::size_t chunk = chunking.chunk_of(c);
          const std::uint64_t offset_sign =
              (c - chunking.chunk_begin(chunk)) << 1 | ((h >> 32 & 1) ^ 1);
          keys[r * candidates + k] =
              static_cast<std::uint64_t>(chunk) << 32 | offset_sign;
          ++start[r][chunk + 1];
        }
      }
    }
  }

  std::vector<float> scratch((std::size_t{1} << shift) * n, 0.0f);
  const auto probes = std::make_unique_for_overwrite<Probe[]>(candidates);
  std::vector<std::size_t> next(n_chunks);
  for (std::size_t r = 0; r < rows; ++r) {
    // Stably counting-sort the row's probes by chunk, so each chunk sees
    // its probes in index order.
    std::vector<std::size_t>& row_start = start[r];
    for (std::size_t c = 1; c <= n_chunks; ++c) {
      row_start[c] += row_start[c - 1];
    }
    std::copy(row_start.begin(), row_start.end() - 1, next.begin());
    const std::uint64_t* row_keys = keys.get() + r * candidates;
    for (std::size_t k = 0; k < candidates; ++k) {
      probes[next[row_keys[k] >> 32]++] = {
          static_cast<std::uint32_t>(k),
          static_cast<std::uint32_t>(row_keys[k])};
    }

    for (std::size_t chunk = 0; chunk < n_chunks; ++chunk) {
      const Probe* first = probes.get() + row_start[chunk];
      const Probe* last = probes.get() + row_start[chunk + 1];
      // Every worker's counter: its signed values added in index order.
      // The value rows are random reads, so each is prefetched a few
      // probes ahead (its estimate slots share its cache lines).
      for (const Probe* p = first; p != last; ++p) {
        if (last - p > kPrefetchAhead) {
          const float* ahead =
              cand.get() + p[kPrefetchAhead].candidate * stride;
          __builtin_prefetch(ahead);
          __builtin_prefetch(ahead + stride - 1);
        }
        const float* values = cand.get() + p->candidate * stride;
        float* acc = scratch.data() + (p->offset_sign >> 1) * n;
        const float sign = (p->offset_sign & 1) != 0 ? -1.0f : 1.0f;
        for (std::size_t w = 0; w < n; ++w) acc[w] += sign * values[w];
      }
      // The merged counter, folded in its segment's ring order, is each
      // probe's estimate for this row.
      const std::size_t g = chunking.segment(chunk);
      for (const Probe* p = first; p != last; ++p) {
        const float* acc = scratch.data() + (p->offset_sign >> 1) * n;
        float merged = acc[g];
        for (std::size_t w = g + 1; w < n; ++w) merged += acc[w];
        for (std::size_t w = 0; w < g; ++w) merged += acc[w];
        const float sign = (p->offset_sign & 1) != 0 ? -1.0f : 1.0f;
        cand[p->candidate * stride + n + r] = sign * merged;
      }
      for (const Probe* p = first; p != last; ++p) {
        std::fill_n(scratch.data() + (p->offset_sign >> 1) * n, n, 0.0f);
      }
    }
  }
  const BaselineStats ring = detail::ring_allreduce_schedule(payload, n, cfg);
  out.stats.total_tx_bytes = ring.total_tx_bytes;

  // Recover every candidate by the median-of-rows estimate (true zeros
  // inside occupied blocks come back as bounded noise — that is the
  // approximation the epsilon verification covers).
  out.result = tensor::DenseTensor(dim);
  std::size_t k = 0;
  for (const std::size_t b : candidate_blocks) {
    const std::size_t last = std::min(dim, (b + 1) * block);
    for (std::size_t i = b * block; i < last; ++i, ++k) {
      out.result[i] = stable_median(cand.get() + k * stride + n, rows);
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
