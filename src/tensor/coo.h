#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "tensor/dense.h"

namespace omr::tensor {

/// Sparse tensor in coordinate-list (COO) format: parallel arrays of sorted
/// indices and values. This is the input format assumed by AGsparse and
/// SparCML; keys are 32-bit as in the paper's cost model (c_i = 4).
struct CooTensor {
  std::size_t dim = 0;               // logical dense length
  std::vector<std::int32_t> keys;    // sorted, unique
  std::vector<float> values;         // same length as keys

  std::size_t nnz() const { return keys.size(); }
  /// Serialized size: one key + one value per non-zero.
  std::size_t wire_bytes() const { return nnz() * (sizeof(std::int32_t) + sizeof(float)); }
};

/// Non-zero mask of the `len` <= 64 floats at `p`: bit j is set iff
/// p[j] != 0.0f, so -0.0f is clear and NaN and denormals are set. A full
/// 64-float group runs as SSE2 compares where the target has them.
std::uint64_t nonzero_mask(const float* p, std::size_t len);

/// Convert dense -> COO, keeping only non-zero elements (sorted by index).
CooTensor dense_to_coo(const DenseTensor& t);

/// Converts every worker's tensor to COO.
std::vector<CooTensor> dense_to_coo(std::span<const DenseTensor> tensors);

/// Convert COO -> dense.
DenseTensor coo_to_dense(const CooTensor& t);

/// Writes `t` into `out` in place: keyed elements take their values, every
/// other element becomes +0. `out` keeps its size, which must be at least
/// `t.dim`.
void coo_to_dense(const CooTensor& t, DenseTensor& out);

/// Runs a sparse collective on dense worker tensors: converts each to COO,
/// calls `reduce(inputs, merged)`, which fills `merged` with the reduced
/// result and returns what the collective reports, then writes `merged`
/// into every worker's tensor in place (the first is rebuilt from it, the
/// others copy the first). Returns what `reduce` returned.
template <class Reduce>
auto reduce_as_coo(std::vector<DenseTensor>& tensors, Reduce&& reduce) {
  const std::vector<CooTensor> inputs = dense_to_coo(tensors);
  CooTensor merged;
  auto reported = reduce(inputs, merged);
  if (!tensors.empty()) {
    coo_to_dense(merged, tensors.front());
    for (std::size_t w = 1; w < tensors.size(); ++w) tensors[w] = tensors[0];
  }
  return reported;
}

/// Sums sparse (key, value) contributions over the key range [lo, hi) on a
/// dense slab: the first contribution to a key stores its value, later ones
/// add to it in call order. emit() appends the sorted union of the touched
/// keys, zero sums included. Per key this performs exactly the additions of
/// a chain of pairwise sorted merges, or of a std::map<key, float>
/// accumulator fed in the same order, so the sums are bit-identical to
/// either; the cost is O(contributions) plus an O(range / 64) emit scan.
/// Dense inputs take whole 64-key words at a time (see add()); the additions
/// stay the same. This is the sparse-merge kernel behind AGsparse, SparCML,
/// Ok-Topk and the sparse parameter server.
class SparseRangeAccumulator {
 public:
  SparseRangeAccumulator() = default;
  SparseRangeAccumulator(std::int64_t lo, std::int64_t hi) { reset(lo, hi); }

  /// Re-targets the accumulator to [lo, hi), empty.
  void reset(std::int64_t lo, std::int64_t hi);

  /// Adds one contribution; `key` must lie in [lo, hi).
  void add(std::int32_t key, float value) {
    const auto i = static_cast<std::size_t>(key - lo_);
    std::uint64_t& word = touched_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if ((word & bit) != 0) {
      sums_[i] += value;
    } else {
      word |= bit;
      sums_[i] = value;
      ++size_;
    }
  }

  /// Adds `n` contributions, keys in [lo, hi), in order. A run of 64
  /// consecutive keys that covers one whole word of the slab (offsets
  /// 64w .. 64w + 63 from lo) is stored in one copy when no key of the word
  /// has been touched, and added lane by lane when every key has; anything
  /// else goes key by key. Either way each key gets the same additions in
  /// the same order as the single-key add().
  void add(const std::int32_t* keys, const float* values, std::size_t n);

  /// Adds every entry of `t` whose key lies in [lo, hi), in key order.
  void add(const CooTensor& t);

  /// Distinct keys touched since the last reset or emit.
  std::size_t size() const { return size_; }

  /// Appends the touched keys in ascending order, with their sums, to `out`
  /// and leaves the accumulator empty over the same range.
  void emit(CooTensor& out);

 private:
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
  std::vector<float> sums_;
  std::vector<std::uint64_t> touched_;
  std::size_t size_ = 0;
};

/// Half-open index range [begin, end) of the entries of sorted `t` whose
/// keys lie in [lo, hi).
std::pair<std::size_t, std::size_t> coo_key_range(const CooTensor& t,
                                                  std::int64_t lo,
                                                  std::int64_t hi);

/// Cost model for format conversion on a worker (Fig. 8): the converter
/// scans the dense tensor and packs (or unpacks) the sparse representation.
/// `mem_bandwidth_Bps` is the effective packing rate. The 2 GB/s default is
/// calibrated to PyTorch's dense<->COO conversion (nonzero() + gather +
/// host transfer), which runs far below raw memcpy speed — this rate
/// reproduces the paper's AGsparse-with-conversion anchors (Fig. 8 and the
/// ~2.0x @10 Gbps / ~0.3x @100 Gbps compressed-AGsparse speedups of
/// Fig. 10).
sim::Time conversion_cost(std::size_t dense_elements, std::size_t nnz,
                          double mem_bandwidth_Bps = 2e9);

}  // namespace omr::tensor
