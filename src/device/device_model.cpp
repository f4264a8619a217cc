#include "device/device_model.h"

#include "tensor/blocks.h"

namespace omr::device {

sim::Time DeviceModel::bitmap_cost(std::size_t n_elements,
                                   std::size_t block_size) const {
  const double read_s =
      static_cast<double>(n_elements) * 4.0 / kGpuMemBandwidthBps;
  const double blocks = static_cast<double>(
      tensor::num_blocks(n_elements, block_size));
  const double overhead_s = blocks * kBitmapPerBlockNs * 1e-9;
  return sim::from_seconds(read_s + overhead_s);
}

sim::Time DeviceModel::chunk_ready(std::size_t byte) const {
  if (gdr) return 0;
  const std::size_t chunk = byte / kChunkBytes;
  const double done_bytes = static_cast<double>((chunk + 1) * kChunkBytes);
  return sim::from_seconds(done_bytes / kPcieBandwidthBps);
}

sim::Time DeviceModel::full_copy_cost(std::size_t bytes) const {
  if (gdr) return 0;
  return sim::from_seconds(static_cast<double>(bytes) / kPcieBandwidthBps);
}

}  // namespace omr::device
