#include "tensor/coo.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace omr::tensor {

CooTensor dense_to_coo(const DenseTensor& t) {
  // Two passes so keys and values are allocated once at their exact size:
  // the first marks the non-zeros of each 64-element group in a mask word,
  // the second emits them, skipping all-zero groups. The test is x != 0.0f
  // throughout, so -0.0f drops and NaN and denormals stay.
  const float* x = t.values().data();
  const std::size_t n = t.size();
  std::vector<std::uint64_t> masks((n + 63) / 64, 0);
  std::size_t nnz = 0;
  for (std::size_t g = 0; g < masks.size(); ++g) {
    const float* p = x + g * 64;
    const std::size_t len = std::min<std::size_t>(64, n - g * 64);
    if (len == 64) {
      // Most groups of a sparse gradient are all +/-0: OR the bit patterns
      // without their sign bits (a loop that vectorizes) and skip the group
      // when nothing is left.
      std::uint32_t bits = 0;
      for (std::size_t j = 0; j < 64; ++j) {
        bits |= std::bit_cast<std::uint32_t>(p[j]) << 1;
      }
      if (bits == 0) continue;
    }
    std::uint64_t m = 0;
    for (std::size_t j = 0; j < len; ++j) {
      m |= static_cast<std::uint64_t>(p[j] != 0.0f) << j;
    }
    masks[g] = m;
    nnz += static_cast<std::size_t>(std::popcount(m));
  }
  CooTensor out;
  out.dim = n;
  out.keys.resize(nnz);
  out.values.resize(nnz);
  std::size_t k = 0;
  for (std::size_t g = 0; g < masks.size(); ++g) {
    for (std::uint64_t m = masks[g]; m != 0; m &= m - 1) {
      const std::size_t i =
          g * 64 + static_cast<std::size_t>(std::countr_zero(m));
      out.keys[k] = static_cast<std::int32_t>(i);
      out.values[k] = x[i];
      ++k;
    }
  }
  return out;
}

DenseTensor coo_to_dense(const CooTensor& t) {
  DenseTensor out(t.dim);
  for (std::size_t i = 0; i < t.keys.size(); ++i) {
    out[static_cast<std::size_t>(t.keys[i])] = t.values[i];
  }
  return out;
}

void SparseRangeAccumulator::reset(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::invalid_argument("accumulator range hi < lo");
  lo_ = lo;
  hi_ = hi;
  const auto range = static_cast<std::size_t>(hi - lo);
  sums_.resize(range);
  touched_.assign((range + 63) / 64, 0);
  size_ = 0;
}

void SparseRangeAccumulator::add(const CooTensor& t) {
  const auto [begin, end] = coo_key_range(t, lo_, hi_);
  add(t.keys.data() + begin, t.values.data() + begin, end - begin);
}

void SparseRangeAccumulator::emit(CooTensor& out) {
  out.keys.reserve(out.keys.size() + size_);
  out.values.reserve(out.values.size() + size_);
  for (std::size_t w = 0; w < touched_.size(); ++w) {
    for (std::uint64_t word = touched_[w]; word != 0; word &= word - 1) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      out.keys.push_back(
          static_cast<std::int32_t>(lo_ + static_cast<std::int64_t>(i)));
      out.values.push_back(sums_[i]);
    }
    touched_[w] = 0;
  }
  size_ = 0;
}

std::pair<std::size_t, std::size_t> coo_key_range(const CooTensor& t,
                                                  std::int64_t lo,
                                                  std::int64_t hi) {
  const auto key_at_least = [&t](std::int64_t k) {
    return static_cast<std::size_t>(
        std::lower_bound(t.keys.begin(), t.keys.end(), k,
                         [](std::int32_t a, std::int64_t b) { return a < b; }) -
        t.keys.begin());
  };
  return {key_at_least(lo), key_at_least(hi)};
}

sim::Time conversion_cost(std::size_t dense_elements, std::size_t nnz,
                          double mem_bandwidth_Bps) {
  // Read the dense tensor once (4 B/element), write keys+values (8 B/nnz).
  const double bytes = static_cast<double>(dense_elements) * 4.0 +
                       static_cast<double>(nnz) * 8.0;
  return sim::from_seconds(bytes / mem_bandwidth_Bps);
}

}  // namespace omr::tensor
