#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/config.h"
#include "tensor/blocks.h"

namespace omr::core {

/// One aggregation stream's slice of the tensor: a contiguous range of
/// global blocks, viewed as a 2-D matrix of `columns` columns (§3.2).
/// Stream-local block L maps to global block `block_lo + L`; its column is
/// `L % width`. Each stream owns exactly one aggregator slot.
struct StreamInfo {
  std::size_t block_lo = 0;   // first global block (inclusive)
  std::size_t block_hi = 0;   // last global block (exclusive)
  std::size_t columns = 0;    // active columns = min(width, blocks())

  std::size_t blocks() const { return block_hi - block_lo; }
};

/// Throw std::invalid_argument unless `cfg` can be laid out: blocks need a
/// positive size and a collective at least one stream. Every engine path
/// reaches this before it divides by the block size.
inline void require_layout(const Config& cfg) {
  if (cfg.block_size == 0) {
    throw std::invalid_argument("block_size must be positive");
  }
  if (cfg.num_streams == 0) {
    throw std::invalid_argument("num_streams must be positive");
  }
}

/// Partition of a tensor into streams, shared by workers and aggregators.
struct StreamLayout {
  std::size_t block_size = 0;
  std::size_t width = 0;  // Block Fusion width w
  std::vector<StreamInfo> streams;

  /// Split `n_elements` into at most cfg.num_streams contiguous block
  /// ranges. Streams receive floor/ceil shares so every block is covered
  /// exactly once; streams beyond the block count are omitted.
  static StreamLayout build(std::size_t n_elements, const Config& cfg);
};

inline StreamLayout StreamLayout::build(std::size_t n_elements,
                                        const Config& cfg) {
  require_layout(cfg);
  StreamLayout layout;
  layout.block_size = cfg.block_size;
  layout.width = cfg.fusion_width();
  const std::size_t nb = tensor::num_blocks(n_elements, cfg.block_size);
  const std::size_t s = std::min(cfg.num_streams, nb > 0 ? nb : std::size_t{1});
  layout.streams.reserve(s);
  for (std::size_t i = 0; i < s; ++i) {
    StreamInfo info;
    info.block_lo = nb * i / s;
    info.block_hi = nb * (i + 1) / s;
    info.columns = std::min(layout.width, info.blocks());
    if (info.blocks() > 0) layout.streams.push_back(info);
  }
  return layout;
}

}  // namespace omr::core
