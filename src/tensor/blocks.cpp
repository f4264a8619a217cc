#include "tensor/blocks.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace omr::tensor {

std::size_t num_blocks(std::size_t n, std::size_t block_size) {
  if (block_size == 0) throw std::invalid_argument("block_size must be > 0");
  return (n + block_size - 1) / block_size;
}

namespace {

/// Branch-free non-zero test over [p, p + n): ORs the value bits together
/// and shifts the sign bit out, so -0.0f counts as zero (matching
/// `!= 0.0f`) and any NaN/denormal counts as non-zero. There is no early
/// exit, and the OR runs in four independent accumulators so consecutive
/// loads do not wait on one dependency chain — far faster than a scalar
/// compare-and-break even when a non-zero sits early in the block.
std::uint32_t or_reduce(const float* p, std::size_t n) {
  std::size_t i = 0;
  std::uint32_t acc = 0;
#if defined(__SSE2__)
  if (n >= 16) {
    __m128i a0 = _mm_setzero_si128();
    __m128i a1 = a0, a2 = a0, a3 = a0;
    for (; i + 16 <= n; i += 16) {
      const auto* v = reinterpret_cast<const __m128i*>(p + i);
      a0 = _mm_or_si128(a0, _mm_loadu_si128(v));
      a1 = _mm_or_si128(a1, _mm_loadu_si128(v + 1));
      a2 = _mm_or_si128(a2, _mm_loadu_si128(v + 2));
      a3 = _mm_or_si128(a3, _mm_loadu_si128(v + 3));
    }
    __m128i a = _mm_or_si128(_mm_or_si128(a0, a1), _mm_or_si128(a2, a3));
    a = _mm_or_si128(a, _mm_shuffle_epi32(a, _MM_SHUFFLE(1, 0, 3, 2)));
    a = _mm_or_si128(a, _mm_shuffle_epi32(a, _MM_SHUFFLE(2, 3, 0, 1)));
    acc = static_cast<std::uint32_t>(_mm_cvtsi128_si32(a));
  }
#else
  std::uint32_t a1 = 0, a2 = 0, a3 = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t u[4];
    std::memcpy(u, p + i, sizeof(u));
    acc |= u[0];
    a1 |= u[1];
    a2 |= u[2];
    a3 |= u[3];
  }
  acc |= a1 | a2 | a3;
#endif
  for (; i < n; ++i) {
    std::uint32_t u;
    std::memcpy(&u, &p[i], sizeof(u));
    acc |= u;
  }
  return acc << 1;  // OR commutes with the shift: drop every sign bit once
}

}  // namespace

BlockBitmap::BlockBitmap(std::span<const float> data, std::size_t block_size) {
  rebuild(data, block_size);
}

void BlockBitmap::rebuild(std::span<const float> data, std::size_t block_size) {
  n_blocks_ = num_blocks(data.size(), block_size);  // throws on 0 first
  block_size_ = block_size;
  words_.assign((n_blocks_ + 63) / 64, 0);
  const float* p = data.data();
  const std::size_t full = data.size() / block_size;
  for (std::size_t b = 0; b < full; ++b) {
    if (or_reduce(p + b * block_size, block_size) != 0) {
      words_[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
  }
  if (full < n_blocks_ &&
      or_reduce(p + full * block_size, data.size() - full * block_size) != 0) {
    words_[full >> 6] |= std::uint64_t{1} << (full & 63);
  }
}

BlockIndex BlockBitmap::next_nonzero(BlockIndex from) const {
  if (from < 0) from = 0;
  std::size_t b = static_cast<std::size_t>(from);
  if (b >= n_blocks_) return kNoBlock;
  std::size_t w = b >> 6;
  // Trailing bits past n_blocks_ are never set, so no end mask is needed.
  std::uint64_t word = words_[w] & (~std::uint64_t{0} << (b & 63));
  while (word == 0) {
    if (++w >= words_.size()) return kNoBlock;
    word = words_[w];
  }
  return static_cast<BlockIndex>((w << 6) +
                                 static_cast<std::size_t>(std::countr_zero(word)));
}

BlockIndex BlockBitmap::next_nonzero_in_column(BlockIndex from,
                                               std::size_t column,
                                               std::size_t stride,
                                               BlockIndex limit) const {
  if (stride == 0) throw std::invalid_argument("stride must be > 0");
  if (from < 0) from = 0;
  const std::size_t end =
      limit == kNoBlock
          ? n_blocks_
          : std::min(static_cast<std::size_t>(limit), n_blocks_);
  // Advance to the first index >= from in the requested column.
  std::size_t b = static_cast<std::size_t>(from);
  const std::size_t rem = b % stride;
  if (rem != column) {
    b += (column >= rem) ? (column - rem) : (stride - rem + column);
  }
  if (stride == 1) {
    const BlockIndex r = next_nonzero(static_cast<BlockIndex>(b));
    return (r == kNoBlock || static_cast<std::size_t>(r) >= end) ? kNoBlock
                                                                 : r;
  }
  if (b >= end) return kNoBlock;
  if (64 % stride == 0) {
    // The stride divides the word width, so the column's candidate bits sit
    // at the same offsets in every word: one AND per word finds the column's
    // first set bit, skipping 64/stride candidates at a time.
    std::uint64_t colmask = 0;
    for (std::size_t o = column % stride; o < 64; o += stride) {
      colmask |= std::uint64_t{1} << o;
    }
    std::size_t w = b >> 6;
    const std::size_t w_end = (end + 63) >> 6;
    std::uint64_t m = words_[w] & colmask & (~std::uint64_t{0} << (b & 63));
    while (m == 0) {
      if (++w >= w_end) return kNoBlock;
      m = words_[w] & colmask;
    }
    const std::size_t idx =
        (w << 6) + static_cast<std::size_t>(std::countr_zero(m));
    return idx < end ? static_cast<BlockIndex>(idx) : kNoBlock;
  }
  for (; b < end; b += stride) {
    if ((words_[b >> 6] >> (b & 63)) & 1u) return static_cast<BlockIndex>(b);
  }
  return kNoBlock;
}

std::size_t BlockBitmap::nonzero_count() const {
  std::size_t count = 0;
  for (std::uint64_t w : words_) {
    count += static_cast<std::size_t>(std::popcount(w));
  }
  return count;
}

double BlockBitmap::block_sparsity() const {
  if (n_blocks_ == 0) return 0.0;
  return 1.0 - static_cast<double>(nonzero_count()) /
                   static_cast<double>(n_blocks_);
}

std::vector<std::uint8_t> BlockBitmap::bits() const {
  std::vector<std::uint8_t> out(n_blocks_, 0);
  for (std::size_t b = 0; b < n_blocks_; ++b) {
    out[b] = static_cast<std::uint8_t>((words_[b >> 6] >> (b & 63)) & 1u);
  }
  return out;
}

double block_sparsity(const DenseTensor& t, std::size_t block_size) {
  return BlockBitmap(t.span(), block_size).block_sparsity();
}

double density_within_blocks(const DenseTensor& t, std::size_t block_size) {
  const BlockBitmap bm(t.span(), block_size);
  std::size_t nz_blocks = 0;
  std::size_t nz_elems = 0;
  std::size_t elems_in_nz_blocks = 0;
  for (std::size_t b = 0; b < bm.size(); ++b) {
    if (!bm.nonzero(static_cast<BlockIndex>(b))) continue;
    ++nz_blocks;
    const std::size_t lo = b * block_size;
    const std::size_t hi = std::min(lo + block_size, t.size());
    elems_in_nz_blocks += hi - lo;
    for (std::size_t i = lo; i < hi; ++i) {
      if (t[i] != 0.0f) ++nz_elems;
    }
  }
  if (nz_blocks == 0) return 0.0;
  return static_cast<double>(nz_elems) /
         static_cast<double>(elems_in_nz_blocks);
}

}  // namespace omr::tensor
