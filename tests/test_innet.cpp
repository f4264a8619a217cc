#include <gtest/gtest.h>

#include "core/engine.h"
#include "innet/p4_aggregator.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace omr::innet {
namespace {

using tensor::DenseTensor;

std::vector<DenseTensor> inputs(std::size_t workers, std::size_t n,
                                double sparsity, std::uint64_t seed) {
  sim::Rng rng(seed);
  return tensor::make_multi_worker(workers, n, 256, sparsity,
                                   tensor::OverlapMode::kRandom, rng);
}

TEST(P4Aggregator, ReducesCorrectly) {
  auto ts = inputs(4, 256 * 64, 0.5, 1);
  P4Config cfg;
  core::RunStats st = run_allreduce_innet(ts, cfg);
  EXPECT_TRUE(st.verified);
}

TEST(P4Aggregator, SmallBlockVariant) {
  auto ts = inputs(4, 256 * 64, 0.5, 2);
  P4Config cfg;
  cfg.block_size = 34;  // the SwitchML-style register budget
  core::RunStats st = run_allreduce_innet(ts, cfg);
  EXPECT_TRUE(st.verified);
}

TEST(P4Aggregator, FasterThanServerAggregator) {
  // Hardware multicast removes the N-fold TX serialization of results, so
  // the switch beats a single dedicated server at equal worker line rate.
  auto a = inputs(8, 256 * 512, 0.0, 3);
  auto b = a;
  P4Config p4;
  p4.num_streams = 64;
  core::RunStats sw = run_allreduce_innet(a, p4);

  core::Config ec;
  ec.block_size = p4.block_size;
  ec.packet_elements = p4.block_size;
  ec.num_streams = 64;
  core::FabricConfig fabric;
  fabric.worker_bandwidth_bps = p4.worker_bandwidth_bps;
  fabric.aggregator_bandwidth_bps = p4.worker_bandwidth_bps;
  fabric.one_way_latency = kSwitchOneWayLatency;
  device::DeviceModel dev;
  core::RunStats server = core::run_allreduce(
      b, ec, core::ClusterSpec::dedicated(1, fabric, dev));
  EXPECT_LT(sw.completion_time, server.completion_time);
}

TEST(P4Aggregator, TwoTierFabricPaysPerHopSerialization) {
  // The same workload on a racked fabric: remote workers reach the
  // aggregating switch through rack uplinks, and every multicast copy to
  // a remote rack is store-and-forward serialized on its downlink — so
  // completion must rise with the rack split, and again when the spine
  // is oversubscribed.
  auto flat_ts = inputs(8, 256 * 64, 0.5, 6);
  core::RunStats flat = run_allreduce_innet(flat_ts, P4Config{});
  EXPECT_TRUE(flat.verified);

  P4Config racked_cfg;
  racked_cfg.n_racks = 2;
  auto racked_ts = inputs(8, 256 * 64, 0.5, 6);
  core::RunStats racked = run_allreduce_innet(racked_ts, racked_cfg);
  EXPECT_TRUE(racked.verified);
  EXPECT_GT(racked.completion_time, flat.completion_time);
  EXPECT_FALSE(racked.links.empty());

  P4Config over_cfg = racked_cfg;
  over_cfg.oversubscription = 4.0;
  auto over_ts = inputs(8, 256 * 64, 0.5, 6);
  core::RunStats over = run_allreduce_innet(over_ts, over_cfg);
  EXPECT_TRUE(over.verified);
  EXPECT_GT(over.completion_time, racked.completion_time);
}

TEST(P4Aggregator, FixedPointQuantizationBounded) {
  // Quantization error per element is at most N / scale.
  auto ts = inputs(8, 256 * 32, 0.0, 4);
  auto ref = ts;
  P4Config cfg;
  core::RunStats st = run_allreduce_innet(ts, cfg);
  EXPECT_TRUE(st.verified);
  EXPECT_LE(st.max_error, 8.0 / core::kFixedPointScale + 1e-9);
}

TEST(P4Aggregator, SaturationClampsExtremes) {
  // Values so large that the int32-scaled sum saturates: the result is
  // clamped, not wrapped.
  std::vector<DenseTensor> ts(4, DenseTensor(256, 3000.0f));
  core::Config ec;
  ec.block_size = 256;
  ec.packet_elements = 256;
  ec.switch_multicast = true;
  ec.fixed_point = true;
  core::FabricConfig fabric;
  fabric.aggregator_bandwidth_bps = 40e9;
  device::DeviceModel dev;
  core::RunStats st = core::run_allreduce(
      ts, ec, core::ClusterSpec::dedicated(1, fabric, dev), /*verify=*/false);
  // True sum is 12000 > int32 max / 2^20 = 2048: expect the clamp.
  EXPECT_NEAR(ts[0][0], 2147483647.0 / core::kFixedPointScale, 1.0);
  (void)st;
}

}  // namespace
}  // namespace omr::innet
