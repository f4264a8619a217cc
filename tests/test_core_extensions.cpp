// Tests for the §7 extensions: reduction operators, numeric
// reproducibility (deterministic fold order), and bucketed AllReduce.
#include <gtest/gtest.h>

#include "core/engine.h"
#include "sim/rng.h"
#include "tensor/blocks.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

using tensor::DenseTensor;

Config small_config() {
  Config cfg;
  cfg.block_size = 16;
  cfg.packet_elements = 64;
  cfg.num_streams = 8;
  cfg.charge_bitmap_cost = false;
  return cfg;
}

FabricConfig fabric() {
  FabricConfig f;
  f.one_way_latency = sim::microseconds(5);
  return f;
}

device::DeviceModel gdr() {
  device::DeviceModel d;
  d.gdr = true;
  return d;
}

std::vector<DenseTensor> inputs(std::size_t workers, std::size_t n, double s,
                                std::uint64_t seed) {
  sim::Rng rng(seed);
  return tensor::make_multi_worker(workers, n, 16, s,
                                   tensor::OverlapMode::kRandom, rng);
}

// ---------------------------------------------------------------------------
// Reduction operators
// ---------------------------------------------------------------------------

TEST(ReduceOps, MinOverContributedBlocks) {
  // Two workers, two blocks: block 0 contributed by both, block 1 by one.
  std::vector<DenseTensor> ts(2, DenseTensor(32));
  for (int i = 0; i < 16; ++i) {
    ts[0][static_cast<size_t>(i)] = static_cast<float>(i + 1);
    ts[1][static_cast<size_t>(i)] = static_cast<float>(16 - i);
  }
  for (int i = 16; i < 32; ++i) ts[0][static_cast<size_t>(i)] = -5.0f;
  Config cfg = small_config();
  cfg.op = ReduceOp::kMin;
  RunStats st = run_allreduce(ts, cfg, ClusterSpec::dedicated(1, fabric(), gdr()));
  EXPECT_TRUE(st.verified);
  // Block 0: element-wise min of the two workers.
  EXPECT_FLOAT_EQ(ts[1][0], 1.0f);
  EXPECT_FLOAT_EQ(ts[1][15], 1.0f);
  EXPECT_FLOAT_EQ(ts[0][8], std::min(9.0f, 8.0f));
  // Block 1: only worker 0 contributed; its values win (transparent zeros).
  EXPECT_FLOAT_EQ(ts[1][20], -5.0f);
}

TEST(ReduceOps, MaxRandomized) {
  auto ts = inputs(5, 16 * 64, 0.7, 3);
  Config cfg = small_config();
  cfg.op = ReduceOp::kMax;
  RunStats st = run_allreduce(ts, cfg, ClusterSpec::dedicated(2, fabric(), gdr()));
  EXPECT_TRUE(st.verified);
}

TEST(ReduceOps, MinUnderLossRecovery) {
  auto ts = inputs(4, 16 * 64, 0.6, 4);
  Config cfg = small_config();
  cfg.op = ReduceOp::kMin;
  cfg.loss_recovery = true;
  cfg.retransmit_timeout = sim::microseconds(200);
  FabricConfig f = fabric();
  f.loss_rate = 0.02;
  RunStats st = run_allreduce(ts, cfg, ClusterSpec::dedicated(2, f, gdr()));
  EXPECT_TRUE(st.verified);
}

TEST(ReduceOps, MaxDenseModeIncludesZeros) {
  // Dense mode folds every worker: zeros participate, so max(-3, 0) = 0.
  std::vector<DenseTensor> ts(2, DenseTensor(16));
  ts[0].fill(-3.0f);
  Config cfg = small_config();
  cfg.op = ReduceOp::kMax;
  cfg.dense_mode = true;
  RunStats st = run_allreduce(ts, cfg, ClusterSpec::dedicated(1, fabric(), gdr()));
  EXPECT_TRUE(st.verified);
  EXPECT_FLOAT_EQ(ts[0][3], 0.0f);
}

TEST(ReduceOps, FixedPointRejectsMinMax) {
  auto ts = inputs(2, 16 * 8, 0.5, 5);
  Config cfg = small_config();
  cfg.op = ReduceOp::kMin;
  cfg.fixed_point = true;
  EXPECT_THROW(run_allreduce(ts, cfg, ClusterSpec::dedicated(1, fabric(), gdr())),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Deterministic reduction (§7 numeric reproducibility)
// ---------------------------------------------------------------------------

TEST(Deterministic, BitIdenticalAcrossArrivalOrders) {
  // Perturb arrival order via different worker bandwidths; deterministic
  // mode must produce bit-identical floats anyway.
  Config cfg = small_config();
  cfg.deterministic_reduction = true;
  std::vector<DenseTensor> results;
  for (double bw : {10e9, 7e9}) {
    sim::Rng rng(6);
    // Adversarial values: large magnitude spread so float addition order
    // visibly matters.
    std::vector<DenseTensor> ts(6, DenseTensor(16 * 32));
    for (std::size_t w = 0; w < ts.size(); ++w) {
      for (std::size_t i = 0; i < ts[w].size(); ++i) {
        ts[w][i] = rng.next_float(-1, 1) *
                   static_cast<float>(1 << (3 * (w % 5)));
      }
    }
    FabricConfig f = fabric();
    f.worker_bandwidth_bps = bw;
    // Stagger workers by attaching different aggregator counts per run is
    // not needed: bandwidth change alone reorders arrivals.
    RunStats st = run_allreduce(ts, cfg, ClusterSpec::dedicated(3, f, gdr()), /*verify=*/false);
    (void)st;
    results.push_back(ts[0]);
  }
  EXPECT_EQ(results[0], results[1]);  // bit-identical
}

TEST(Deterministic, MatchesWidOrderedReference) {
  Config cfg = small_config();
  cfg.deterministic_reduction = true;
  auto ts = inputs(4, 16 * 64, 0.5, 7);
  // Reference folded in worker order (the order the engine guarantees).
  DenseTensor ref(ts[0].size());
  for (const auto& t : ts) ref.add_inplace(t);
  RunStats st = run_allreduce(ts, cfg, ClusterSpec::dedicated(2, fabric(), gdr()), /*verify=*/false);
  (void)st;
  // In-order fold of <= 4 floats equals the reference fold exactly only if
  // the engine used the same order; allow zero tolerance.
  EXPECT_EQ(tensor::max_abs_diff(ts[0], ref), 0.0);
}

TEST(Deterministic, WorksUnderLoss) {
  Config cfg = small_config();
  cfg.deterministic_reduction = true;
  cfg.loss_recovery = true;
  cfg.retransmit_timeout = sim::microseconds(150);
  FabricConfig f = fabric();
  f.loss_rate = 0.05;
  auto ts = inputs(4, 16 * 64, 0.5, 8);
  RunStats st = run_allreduce(ts, cfg, ClusterSpec::dedicated(2, f, gdr()));
  EXPECT_TRUE(st.verified);
}

// ---------------------------------------------------------------------------
// Straggler start offsets
// ---------------------------------------------------------------------------

TEST(Stragglers, CorrectWithSkewedStarts) {
  auto ts = inputs(4, 16 * 128, 0.6, 11);
  FabricConfig f = fabric();
  f.worker_start_offsets = {0, sim::microseconds(500), 0,
                            sim::milliseconds(2)};
  RunStats st = run_allreduce(ts, small_config(), ClusterSpec::dedicated(2, f, gdr()));
  EXPECT_TRUE(st.verified);
  // Completion is gated by the last worker.
  EXPECT_GE(st.completion_time, sim::milliseconds(2));
}

TEST(Stragglers, OffsetCountMismatchThrows) {
  auto ts = inputs(3, 16 * 16, 0.5, 12);
  FabricConfig f = fabric();
  f.worker_start_offsets = {0, 0};
  EXPECT_THROW(run_allreduce(ts, small_config(), ClusterSpec::dedicated(1, f, gdr())),
               std::invalid_argument);
}

TEST(Stragglers, DelayIsAdditiveNotAmplified) {
  auto base_in = inputs(4, 16 * 512, 0.5, 13);
  auto skew_in = base_in;
  FabricConfig f = fabric();
  RunStats base = run_allreduce(base_in, small_config(), ClusterSpec::dedicated(2, f, gdr()));
  f.worker_start_offsets = {0, 0, sim::milliseconds(1), 0};
  RunStats skew = run_allreduce(skew_in, small_config(), ClusterSpec::dedicated(2, f, gdr()));
  const sim::Time extra = skew.completion_time - base.completion_time;
  EXPECT_GE(extra, sim::microseconds(900));
  EXPECT_LE(extra, sim::microseconds(1100));
}


// ---------------------------------------------------------------------------
// fp16 wire format (value_bytes)
// ---------------------------------------------------------------------------

TEST(WireFormat, HalfPrecisionHalvesTransmissionTime) {
  Config cfg = small_config();
  cfg.num_streams = 32;
  auto fp32_in = inputs(4, 16 * 4096, 0.0, 14);
  auto fp16_in = fp32_in;
  FabricConfig f = fabric();
  f.one_way_latency = sim::microseconds(1);
  RunStats fp32 = run_allreduce(fp32_in, cfg, ClusterSpec::dedicated(4, f, gdr()));
  cfg.value_bytes = 2;
  RunStats fp16 = run_allreduce(fp16_in, cfg, ClusterSpec::dedicated(4, f, gdr()));
  EXPECT_TRUE(fp16.verified);
  const double ratio = static_cast<double>(fp32.completion_time) /
                       static_cast<double>(fp16.completion_time);
  EXPECT_GT(ratio, 1.45);  // < 2.0 because headers/metadata do not shrink
  EXPECT_LT(ratio, 2.05);
  EXPECT_NEAR(static_cast<double>(fp32.worker_data_bytes[0]),
              2.0 * static_cast<double>(fp16.worker_data_bytes[0]), 1.0);
}


// ---------------------------------------------------------------------------
// Device staging (Appendix B) through the engine
// ---------------------------------------------------------------------------

TEST(DeviceStaging, NonGdrCompletionHasPcieFloor) {
  // At extreme sparsity the protocol finishes almost instantly, but a
  // non-GDR worker must still stage the whole tensor through host memory.
  const std::size_t n = 4 << 20;  // 16 MB: PCIe floor ~1.3 ms dominates
  sim::Rng rng(21);
  auto ts = tensor::make_multi_worker(4, n, 256, 0.99,
                                      tensor::OverlapMode::kRandom, rng);
  device::DeviceModel dev;  // gdr = false
  Config cfg = small_config();
  cfg.block_size = 256;
  cfg.packet_elements = 1024;
  cfg.num_streams = 64;
  FabricConfig f = fabric();
  f.worker_bandwidth_bps = 100e9;
  f.aggregator_bandwidth_bps = 100e9;
  RunStats st = run_allreduce(ts, cfg, ClusterSpec::dedicated(4, f, dev));
  EXPECT_TRUE(st.verified);
  const sim::Time floor = dev.full_copy_cost(n * 4);
  EXPECT_GE(st.completion_time, floor);
  // And GDR removes the floor.
  auto ts2 = tensor::make_multi_worker(4, n, 256, 0.99,
                                       tensor::OverlapMode::kRandom, rng);
  device::DeviceModel g;
  g.gdr = true;
  RunStats st2 = run_allreduce(ts2, cfg, ClusterSpec::dedicated(4, f, g));
  EXPECT_LT(st2.completion_time, floor);
}

TEST(DeviceStaging, ChunkPrefetchDelaysLateBlocks) {
  // A tensor whose only non-zero block sits at the end cannot be sent
  // before its staging chunk lands: completion >= chunk_ready(last byte).
  const std::size_t n = 4 << 20;  // 16 MB > several 4 MB chunks
  std::vector<DenseTensor> ts(2, DenseTensor(n));
  ts[0][n - 1] = 1.0f;
  ts[1][n - 1] = 2.0f;
  device::DeviceModel dev;  // staged
  Config cfg = small_config();
  cfg.block_size = 256;
  cfg.packet_elements = 256;
  FabricConfig f = fabric();
  f.worker_bandwidth_bps = 100e9;
  f.aggregator_bandwidth_bps = 100e9;
  RunStats st = run_allreduce(ts, cfg, ClusterSpec::dedicated(1, f, dev));
  EXPECT_TRUE(st.verified);
  EXPECT_GE(st.completion_time, dev.chunk_ready(n * 4 - 1));
}

}  // namespace
}  // namespace omr::core
