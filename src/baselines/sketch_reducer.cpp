#include "baselines/sketch_reducer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
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

/// Exact h % d through one 128-bit multiply by a precomputed reciprocal:
/// the quotient estimate is at most 2 short, so the remainder needs at
/// most two corrections.
struct ExactMod {
  explicit ExactMod(std::uint64_t divisor)
      : d(divisor), inv(~std::uint64_t{0} / divisor) {}
  std::uint64_t operator()(std::uint64_t h) const {
    const auto q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(h) * inv) >> 64);
    std::uint64_t r = h - q * d;
    while (r >= d) r -= d;
    return r;
  }
  std::uint64_t d;
  std::uint64_t inv;
};

/// Where element i lands in row r: the packed-buffer counter r * width +
/// bucket (kept as its merge tile and offset there) and the sign it is
/// added with. Bucket and sign come from one splitmix64 of (seed, row,
/// index): low bits (mod width) pick the bucket, bit 32 the sign. Seeded
/// identically on every worker (the hashes are part of the collective's
/// agreement, like the block size).
struct Probe {
  std::uint32_t tile;
  std::uint32_t offset;
  float sign;
};

/// One worker's contribution to a counter: the counter's offset in its
/// tile and the signed value.
struct Entry {
  std::uint32_t offset;
  float value;
};

/// Counters per merge tile: a tile's merged values plus one worker's
/// scratch stay in L2 while the worker's entries stream through.
constexpr unsigned kTileShift = 16;
constexpr std::size_t kTile = std::size_t{1} << kTileShift;

/// The packed buffer as the ring splits it: segment g is
/// [payload*g/N, payload*(g+1)/N), cut into tiles of kTile counters from
/// its start. Tile k of segment g has id g * per_segment + k.
class Tiling {
 public:
  Tiling(std::size_t payload, std::size_t n) : seg_begin_(n + 1) {
    std::size_t longest = 0;
    for (std::size_t g = 0; g <= n; ++g) {
      seg_begin_[g] = payload * g / n;
      if (g > 0) longest = std::max(longest, seg_begin_[g] - seg_begin_[g - 1]);
    }
    per_segment_ = std::max<std::size_t>(1, (longest + kTile - 1) / kTile);
    for (std::size_t g = 0; g < n; ++g) {
      for (std::size_t k = 0; k < per_segment_; ++k) {
        tile_begin_.push_back(seg_begin_[g] + k * kTile);
      }
    }
    // Segment of each kTile-aligned cell's first counter: segment_of's
    // starting guess.
    std::size_t g = 0;
    for (std::size_t c = 0; c < payload; c += kTile) {
      while (seg_begin_[g + 1] <= c) ++g;
      cell_segment_.push_back(g);
    }
  }

  std::size_t tiles() const { return tile_begin_.size(); }
  /// Tile id of tile k in segment g.
  std::size_t tile(std::size_t g, std::size_t k) const {
    return g * per_segment_ + k;
  }
  std::size_t tiles_per_segment() const { return per_segment_; }
  std::size_t segment_end(std::size_t g) const { return seg_begin_[g + 1]; }
  std::size_t tile_begin(std::size_t id) const { return tile_begin_[id]; }

  /// Id of the tile holding counter c.
  std::size_t tile_of(std::size_t c) const {
    std::size_t g = cell_segment_[c >> kTileShift];
    while (seg_begin_[g + 1] <= c) ++g;
    return tile(g, (c - seg_begin_[g]) >> kTileShift);
  }

 private:
  std::vector<std::size_t> seg_begin_;
  std::size_t per_segment_ = 1;
  std::vector<std::size_t> tile_begin_;
  std::vector<std::size_t> cell_segment_;
};

/// Stable median: the middle element of `v` after a stable sort. Insertion
/// sort, as std::sort itself does below 16 elements, so ties between +0 and
/// -0 resolve identically.
float stable_median(float* v, std::size_t n) {
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
  const std::size_t rows = opts.rows;
  const std::size_t block = std::max<std::size_t>(1, opts.block_elements);
  const std::size_t n_blocks = (dim + block - 1) / block;

  // Union support: which indices any worker contributes. Only its size
  // enters the wire format (the per-block occupancy travels with the
  // sketch); the index-level set is local bookkeeping.
  std::size_t union_nnz = 0;
  std::size_t max_nnz = 0;
  std::vector<char> occupied(dim, 0);
  for (const auto& t : inputs) {
    std::size_t nnz = 0;
    for (std::size_t i = 0; i < dim; ++i) {
      if (t[i] == 0.0f) continue;
      ++nnz;
      if (!occupied[i]) {
        occupied[i] = 1;
        ++union_nnz;
      }
    }
    max_nnz = std::max(max_nnz, nnz);
  }
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
  // through a dense ring AllReduce; its segment g is
  // [payload*g/N, payload*(g+1)/N).
  const Tiling tiling(payload, n);

  // Probes for every index of an occupied block: the recovery candidates,
  // a superset of every worker's non-zeros.
  std::vector<char> block_occupied(n_blocks, 0);
  for (std::size_t i = 0; i < dim; ++i) {
    if (occupied[i]) block_occupied[i / block] = 1;
  }
  const ExactMod bucket_of(width);
  // Only the probes of occupied blocks are ever written or read.
  const auto probes = std::make_unique_for_overwrite<Probe[]>(dim * rows);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    if (!block_occupied[b]) continue;
    for (std::size_t i = b * block; i < std::min(dim, (b + 1) * block); ++i) {
      for (std::size_t r = 0; r < rows; ++r) {
        const std::uint64_t h = splitmix64(
            opts.seed ^ (r * 0x100000001b3ULL) ^
            (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL));
        const std::size_t c = r * width + bucket_of(h);
        const std::size_t tile = tiling.tile_of(c);
        probes[i * rows + r] = {
            static_cast<std::uint32_t>(tile),
            static_cast<std::uint32_t>(c - tiling.tile_begin(tile)),
            (h >> 32 & 1) != 0 ? 1.0f : -1.0f};
      }
    }
  }

  // Each worker's (counter, signed value) entries in index order, stably
  // bucketed by tile: worker w's entries for tile t are
  // entries[start[w*T + t], start[w*T + t + 1]).
  const std::size_t n_tiles = tiling.tiles();
  std::vector<std::size_t> start(n * n_tiles + 1, 0);
  for (std::size_t w = 0; w < n; ++w) {
    const tensor::DenseTensor& t = inputs[w];
    std::size_t* count = start.data() + w * n_tiles + 1;
    for (std::size_t i = 0; i < dim; ++i) {
      if (t[i] == 0.0f) continue;
      for (std::size_t r = 0; r < rows; ++r) {
        ++count[probes[i * rows + r].tile];
      }
    }
  }
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  const auto entries = std::make_unique_for_overwrite<Entry[]>(start.back());
  {
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t w = 0; w < n; ++w) {
      const tensor::DenseTensor& t = inputs[w];
      std::size_t* next = cursor.data() + w * n_tiles;
      for (std::size_t i = 0; i < dim; ++i) {
        const float v = t[i];
        if (v == 0.0f) continue;
        for (std::size_t r = 0; r < rows; ++r) {
          const Probe& p = probes[i * rows + r];
          entries[next[p.tile]++] = {p.offset, p.sign * v};
        }
      }
    }
  }

  // Merge the sketches in the ring's own order: segment g is the left fold
  // of the workers' buffers g, g+1, ..., g+N-1 (mod N), so each of its
  // tiles is too. Each worker's counters are rebuilt in a tile-sized
  // scratch (adding its entries in index order, as building its buffer
  // did) and then added to the merged tile. A worker that never touched a
  // counter holds +0 there, and adding +0 leaves a sum unchanged (no
  // counter sum is ever -0), so only touched counters are added. Occupancy
  // sums to the contributing-worker count, of which recovery only needs
  // "> 0": block_occupied.
  std::vector<float> merged(rows * width, 0.0f);
  std::vector<float> scratch(kTile, 0.0f);
  for (std::size_t g = 0; g < n; ++g) {
    for (std::size_t k = 0; k < tiling.tiles_per_segment(); ++k) {
      const std::size_t tile = tiling.tile(g, k);
      if (tiling.tile_begin(tile) >= std::min(tiling.segment_end(g),
                                              merged.size())) {
        break;
      }
      float* out_tile = merged.data() + tiling.tile_begin(tile);
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t w = (g + j) % n;
        const Entry* first = entries.get() + start[w * n_tiles + tile];
        const Entry* last = entries.get() + start[w * n_tiles + tile + 1];
        for (const Entry* e = first; e != last; ++e) {
          scratch[e->offset] += e->value;
        }
        for (const Entry* e = first; e != last; ++e) {
          out_tile[e->offset] += scratch[e->offset];
          scratch[e->offset] = 0.0f;
        }
      }
    }
  }
  const BaselineStats ring = detail::ring_allreduce_schedule(payload, n, cfg);
  out.stats.total_tx_bytes = ring.total_tx_bytes;

  // Recover every index inside an occupied block by the median-of-rows
  // estimate (true zeros inside occupied blocks come back as bounded
  // noise — that is the approximation the epsilon verification covers).
  out.result = tensor::DenseTensor(dim);
  std::size_t candidates = 0;
  std::vector<float> est(rows);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    if (!block_occupied[b]) continue;
    for (std::size_t i = b * block; i < std::min(dim, (b + 1) * block); ++i) {
      ++candidates;
      for (std::size_t r = 0; r < rows; ++r) {
        const Probe& p = probes[i * rows + r];
        est[r] = p.sign * merged[tiling.tile_begin(p.tile) + p.offset];
      }
      out.result[i] = stable_median(est.data(), rows);
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
