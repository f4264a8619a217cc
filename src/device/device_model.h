#pragma once

#include <cstddef>

#include "sim/time.h"

namespace omr::device {

/// Effective GPU->host copy bandwidth (bytes/s). PCIe gen3 x16 gives
/// 128 Gbps raw; ~13 GB/s is the achievable cudaMemcpy rate.
inline constexpr double kPcieBandwidthBps = 13e9;
/// GPU memory bandwidth for the bitmap scan kernel (V100: ~900 GB/s).
inline constexpr double kGpuMemBandwidthBps = 900e9;
/// Per-block overhead of the bitmap kernel (block-reduction output +
/// atomic), calibrated so a 100 MB tensor at bs=1 costs ~40 ms (Fig. 20).
inline constexpr double kBitmapPerBlockNs = 1.5;
/// Staging chunk size (Appendix B uses 4 MB).
inline constexpr std::size_t kChunkBytes = 4 << 20;

/// Model of the accelerator (GPU) side of a worker: where gradients live
/// and what it costs to move them toward the NIC. Substitutes for CUDA +
/// GPU-direct RDMA in the paper's implementation (§5, Appendix B):
///
///  * Without GDR, the whole tensor (zero and non-zero blocks alike) is
///    staged GPU -> host in fixed-size chunks via cudaMemcpyAsync; the
///    worker can only transmit a block once its chunk has landed, and the
///    staging pipeline runs concurrently with communication. At 100 Gbps
///    this copy becomes the bottleneck at high sparsity (Fig. 4, §6.1.1).
///  * With GDR the NIC reads GPU memory directly: no staging.
///  * The non-zero-block bitmap is computed by a GPU kernel whose cost
///    rises steeply for tiny blocks (one reduction output per block,
///    Fig. 20); for bs >= 16 it is negligible.
struct DeviceModel {
  /// GPU-direct RDMA available: NIC reads GPU memory, no staging.
  bool gdr = false;

  /// Cost of computing the non-zero-block bitmap over `n_elements` floats.
  sim::Time bitmap_cost(std::size_t n_elements, std::size_t block_size) const;

  /// Virtual time at which the chunk containing byte offset `byte` has
  /// finished staging to the host, assuming staging starts at time 0 and
  /// chunks copy back-to-back. Returns 0 when GDR is enabled.
  sim::Time chunk_ready(std::size_t byte) const;

  /// Time to stage `bytes` of tensor GPU -> host (0 when GDR is enabled).
  sim::Time full_copy_cost(std::size_t bytes) const;
};

}  // namespace omr::device
