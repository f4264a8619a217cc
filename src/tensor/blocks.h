#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/dense.h"

namespace omr::tensor {

/// Block index within a tensor partitioned into fixed-size blocks.
using BlockIndex = std::int64_t;

/// Sentinel: "no further non-zero block" (the paper's infinity).
inline constexpr BlockIndex kNoBlock = INT64_MAX;

/// Number of blocks of `block_size` elements covering `n` elements
/// (the last block may be partial).
std::size_t num_blocks(std::size_t n, std::size_t block_size);

/// One bit per block: 1 if the block contains at least one non-zero
/// element. This is the "bitmap" the paper computes on the GPU (§B.1).
/// Bits are packed into 64-bit words so scans skip 64 all-zero blocks per
/// word test and locate the next set bit with a single countr_zero.
class BlockBitmap {
 public:
  BlockBitmap() = default;
  /// Scan `data` and mark non-zero blocks.
  BlockBitmap(std::span<const float> data, std::size_t block_size);
  /// Rescan into this bitmap, reusing its storage (a worker keeps one
  /// bitmap across the collectives of a Session).
  void rebuild(std::span<const float> data, std::size_t block_size);

  std::size_t block_size() const { return block_size_; }
  std::size_t size() const { return n_blocks_; }
  bool nonzero(BlockIndex b) const {
    const auto i = static_cast<std::size_t>(b);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// First non-zero block with index >= `from`, or kNoBlock.
  BlockIndex next_nonzero(BlockIndex from) const;

  /// First non-zero block with index >= `from` whose index is congruent to
  /// `column` modulo `stride` (column scan for Block Fusion, §3.2). The
  /// scan stops at block `limit` (exclusive; kNoBlock = whole bitmap) so a
  /// stream can bound the search to its own block range.
  BlockIndex next_nonzero_in_column(BlockIndex from, std::size_t column,
                                    std::size_t stride,
                                    BlockIndex limit = kNoBlock) const;

  /// Count of non-zero blocks.
  std::size_t nonzero_count() const;
  /// Fraction of all-zero blocks in [0, 1] — the paper's "block sparsity".
  double block_sparsity() const;

  /// Byte-per-block expansion (1 = non-zero), for tests and debugging.
  std::vector<std::uint8_t> bits() const;

  /// The packed words; bit b of word w covers block w * 64 + b. Trailing
  /// bits past size() are zero.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::size_t block_size_ = 0;
  std::size_t n_blocks_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Block sparsity of a tensor for a given block size.
double block_sparsity(const DenseTensor& t, std::size_t block_size);

/// Average fraction of non-zero elements inside non-zero blocks
/// ("density within block", Fig. 16 right). Returns 0 if no block is
/// non-zero.
double density_within_blocks(const DenseTensor& t, std::size_t block_size);

}  // namespace omr::tensor
