#include <gtest/gtest.h>

#include "core/hierarchical.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

using tensor::DenseTensor;

std::vector<std::vector<DenseTensor>> cluster(std::size_t servers,
                                              std::size_t gpus, std::size_t n,
                                              double sparsity,
                                              std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::vector<DenseTensor>> out(servers);
  for (auto& s : out) {
    s = tensor::make_multi_worker(gpus, n, 16, sparsity,
                                  tensor::OverlapMode::kRandom, rng);
  }
  return out;
}

Config cfg() {
  Config c;
  c.block_size = 16;
  c.packet_elements = 64;
  c.num_streams = 8;
  c.charge_bitmap_cost = false;
  return c;
}

FabricConfig fabric() {
  FabricConfig f;
  f.worker_bandwidth_bps = 100e9;
  f.aggregator_bandwidth_bps = 100e9;
  f.one_way_latency = sim::microseconds(5);
  return f;
}

TEST(Hierarchical, ReducesAcrossServersAndGpus) {
  auto grads = cluster(3, 4, 16 * 64, 0.5, 1);
  device::DeviceModel dev;
  dev.gdr = true;
  HierarchicalStats st = run_hierarchical_allreduce(
      grads, cfg(), ClusterSpec::dedicated(3, fabric(), dev));
  EXPECT_TRUE(st.verified);
  EXPECT_GT(st.total, st.inter.completion_time);
  EXPECT_GT(st.intra_reduce, 0);
}

TEST(Hierarchical, SingleGpuServersSkipIntraPhase) {
  auto grads = cluster(4, 1, 16 * 32, 0.5, 2);
  device::DeviceModel dev;
  dev.gdr = true;
  HierarchicalStats st = run_hierarchical_allreduce(
      grads, cfg(), ClusterSpec::dedicated(4, fabric(), dev));
  EXPECT_TRUE(st.verified);
  EXPECT_EQ(st.intra_reduce, 0);
  EXPECT_EQ(st.total, st.inter.completion_time);
}

TEST(Hierarchical, UnionSparsityDensifiesInterLayer) {
  // 8 GPUs per server with independent 90%-sparse gradients: the server
  // sum is much denser than any single GPU's gradient.
  auto grads = cluster(2, 8, 16 * 256, 0.9, 3);
  device::DeviceModel dev;
  dev.gdr = true;
  auto copy = grads;
  HierarchicalStats st = run_hierarchical_allreduce(
      copy, cfg(), ClusterSpec::dedicated(2, fabric(), dev));
  EXPECT_TRUE(st.verified);
  // Mean per-server transmitted volume exceeds a single GPU's non-zero
  // volume (union effect).
  tensor::BlockBitmap single(grads[0][0].span(), 16);
  const double single_frac =
      static_cast<double>(single.nonzero_count()) / single.size();
  const double sent_frac =
      st.inter.mean_worker_data_bytes() / (16.0 * 256 * 4);
  EXPECT_GT(sent_frac, single_frac);
}

TEST(Hierarchical, MismatchedSizesThrow) {
  std::vector<std::vector<DenseTensor>> grads(2);
  grads[0].push_back(DenseTensor(64));
  grads[1].push_back(DenseTensor(32));
  device::DeviceModel dev;
  EXPECT_THROW(run_hierarchical_allreduce(grads, cfg(), ClusterSpec::dedicated(2, fabric(), dev)),
               std::invalid_argument);
}

}  // namespace
}  // namespace omr::core
