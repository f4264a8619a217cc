#include <gtest/gtest.h>

#include "device/device_model.h"
#include "sim/time.h"

namespace omr::device {
namespace {

TEST(DeviceModel, BitmapCostSteepForTinyBlocks) {
  DeviceModel d;
  const std::size_t n = 25 * 1000 * 1000;  // ~100 MB of floats
  const sim::Time bs1 = d.bitmap_cost(n, 1);
  const sim::Time bs16 = d.bitmap_cost(n, 16);
  const sim::Time bs256 = d.bitmap_cost(n, 256);
  // Fig. 20 shape: ~40 ms at bs=1, negligible (<3 ms) from bs=16 on.
  EXPECT_GT(sim::to_milliseconds(bs1), 30.0);
  EXPECT_LT(sim::to_milliseconds(bs16), 3.0);
  EXPECT_LT(bs256, bs16);
  EXPECT_LT(bs16, bs1);
}

TEST(DeviceModel, BitmapCostHasBandwidthFloor) {
  DeviceModel d;
  // Even with huge blocks, the scan reads the tensor once.
  const std::size_t n = 25 * 1000 * 1000;
  EXPECT_GE(d.bitmap_cost(n, 1 << 20),
            sim::from_seconds(n * 4.0 / kGpuMemBandwidthBps));
}

TEST(DeviceModel, ChunkReadyIsStaircase) {
  DeviceModel d;
  static_assert(kChunkBytes == 4 << 20);
  const sim::Time first = d.chunk_ready(0);
  EXPECT_EQ(first, d.chunk_ready((4 << 20) - 1));  // same chunk
  EXPECT_GT(d.chunk_ready(4 << 20), first);        // next chunk later
  EXPECT_EQ(first, sim::from_seconds((4 << 20) / kPcieBandwidthBps));
}

TEST(DeviceModel, GdrEliminatesStaging) {
  DeviceModel d;
  d.gdr = true;
  EXPECT_EQ(d.chunk_ready(123456789), 0);
  EXPECT_EQ(d.full_copy_cost(100 << 20), 0);
}

TEST(DeviceModel, FullCopyScalesLinearly) {
  DeviceModel d;
  const sim::Time t1 = d.full_copy_cost(100 << 20);
  const sim::Time t2 = d.full_copy_cost(200 << 20);
  EXPECT_NEAR(static_cast<double>(t2), 2.0 * static_cast<double>(t1),
              static_cast<double>(t1) * 0.01);
  // 100 MB at 13 GB/s is ~8 ms: that is the Fig. 4 RDMA plateau.
  EXPECT_NEAR(sim::to_milliseconds(t1), 8.0, 1.0);
}

}  // namespace
}  // namespace omr::device
