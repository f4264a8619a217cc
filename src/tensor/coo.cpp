#include "tensor/coo.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

namespace omr::tensor {

namespace {

/// Whether keys[0..63] are the 64 consecutive keys keys[0], keys[0] + 1, ...
bool is_word_run(const std::int32_t* keys) {
  // Unsigned, so keys[0] + t cannot overflow for a key near INT32_MAX.
  const auto first = static_cast<std::uint32_t>(keys[0]);
  if (static_cast<std::uint32_t>(keys[63]) != first + 63) return false;
  std::uint32_t diff = 0;
  for (std::uint32_t t = 1; t < 63; ++t) {
    diff |= static_cast<std::uint32_t>(keys[t]) ^ (first + t);
  }
  return diff == 0;
}

}  // namespace

std::uint64_t nonzero_mask(const float* p, std::size_t len) {
  std::uint64_t m = 0;
#if defined(__SSE2__)
  if (len == 64) {
    // cmpneq is an unordered compare: NaN sets its lane, +-0 clears it,
    // denormals set it (the same answer as the scalar != below).
    const __m128 zero = _mm_setzero_ps();
    for (unsigned j = 0; j < 64; j += 4) {
      const __m128 ne = _mm_cmpneq_ps(_mm_loadu_ps(p + j), zero);
      m |= static_cast<std::uint64_t>(_mm_movemask_ps(ne)) << j;
    }
    return m;
  }
#endif
  for (std::size_t j = 0; j < len; ++j) {
    m |= static_cast<std::uint64_t>(p[j] != 0.0f) << j;
  }
  return m;
}

CooTensor dense_to_coo(const DenseTensor& t) {
  // Two passes so keys and values are allocated once at their exact size:
  // the first builds each 64-element group's non-zero mask, the second
  // emits the groups. A full group is one 64-value copy and 64 consecutive
  // keys; any other group goes bit by bit.
  const float* x = t.values().data();
  const std::size_t n = t.size();
  std::vector<std::uint64_t> masks((n + 63) / 64);
  std::size_t nnz = 0;
  for (std::size_t g = 0; g < masks.size(); ++g) {
    masks[g] = nonzero_mask(x + g * 64, std::min<std::size_t>(64, n - g * 64));
    nnz += static_cast<std::size_t>(std::popcount(masks[g]));
  }
  CooTensor out;
  out.dim = n;
  out.keys.resize(nnz);
  out.values.resize(nnz);
  std::int32_t* keys = out.keys.data();
  float* values = out.values.data();
  for (std::size_t g = 0; g < masks.size(); ++g) {
    const std::uint64_t m = masks[g];
    const auto first = static_cast<std::int32_t>(g * 64);
    if (m == ~std::uint64_t{0}) {
      std::memcpy(values, x + first, 64 * sizeof(float));
      for (std::int32_t j = 0; j < 64; ++j) keys[j] = first + j;
      keys += 64;
      values += 64;
      continue;
    }
    for (std::uint64_t rest = m; rest != 0; rest &= rest - 1) {
      const std::int32_t i = first + std::countr_zero(rest);
      *keys++ = i;
      *values++ = x[i];
    }
  }
  return out;
}

std::vector<CooTensor> dense_to_coo(std::span<const DenseTensor> tensors) {
  std::vector<CooTensor> coo;
  coo.reserve(tensors.size());
  for (const DenseTensor& t : tensors) coo.push_back(dense_to_coo(t));
  return coo;
}

DenseTensor coo_to_dense(const CooTensor& t) {
  DenseTensor out(t.dim);
  coo_to_dense(t, out);
  return out;
}

void coo_to_dense(const CooTensor& t, DenseTensor& out) {
  if (out.size() < t.dim) {
    throw std::invalid_argument("coo_to_dense: tensor shorter than dim");
  }
  out.fill(0.0f);
  for (std::size_t i = 0; i < t.keys.size(); ++i) {
    out[static_cast<std::size_t>(t.keys[i])] = t.values[i];
  }
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

void SparseRangeAccumulator::add(const std::int32_t* keys,
                                 const float* values, std::size_t n) {
  std::size_t j = 0;
  while (j < n) {
    const auto i = static_cast<std::size_t>(keys[j] - lo_);
    if ((i & 63) == 0 && n - j >= 64 && is_word_run(keys + j)) {
      std::uint64_t& word = touched_[i >> 6];
      if (word == 0) {
        std::memcpy(sums_.data() + i, values + j, 64 * sizeof(float));
        word = ~std::uint64_t{0};
        size_ += 64;
        j += 64;
        continue;
      }
      if (word == ~std::uint64_t{0}) {
        float* sums = sums_.data() + i;
        for (std::size_t t = 0; t < 64; ++t) sums[t] += values[j + t];
        j += 64;
        continue;
      }
    }
    add(keys[j], values[j]);
    ++j;
  }
}

void SparseRangeAccumulator::add(const CooTensor& t) {
  const auto [begin, end] = coo_key_range(t, lo_, hi_);
  add(t.keys.data() + begin, t.values.data() + begin, end - begin);
}

void SparseRangeAccumulator::emit(CooTensor& out) {
  const std::size_t base = out.keys.size();
  out.keys.resize(base + size_);
  out.values.resize(base + size_);
  std::int32_t* keys = out.keys.data() + base;
  float* values = out.values.data() + base;
  for (std::size_t w = 0; w < touched_.size(); ++w) {
    const std::uint64_t word = touched_[w];
    if (word == 0) continue;
    const std::int64_t first = lo_ + static_cast<std::int64_t>(w * 64);
    if (word == ~std::uint64_t{0}) {
      std::memcpy(values, sums_.data() + w * 64, 64 * sizeof(float));
      for (std::int64_t j = 0; j < 64; ++j) {
        keys[j] = static_cast<std::int32_t>(first + j);
      }
      keys += 64;
      values += 64;
    } else {
      for (std::uint64_t rest = word; rest != 0; rest &= rest - 1) {
        const int j = std::countr_zero(rest);
        *keys++ = static_cast<std::int32_t>(first + j);
        *values++ = sums_[w * 64 + static_cast<std::size_t>(j)];
      }
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
