#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "core/algorithm.h"
#include "core/collectives.h"
#include "core/config.h"
#include "core/engine.h"
#include "core/run_context.h"
#include "core/sparse_kv.h"
#include "core/stream_layout.h"
#include "sim/rng.h"
#include "tensor/coo.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

using tensor::DenseTensor;
using tensor::OverlapMode;

Config small_config() {
  Config cfg;
  cfg.block_size = 16;
  cfg.packet_elements = 64;  // w = 4
  cfg.num_streams = 8;
  cfg.charge_bitmap_cost = false;
  return cfg;
}

FabricConfig test_fabric(double loss = 0.0) {
  FabricConfig f;
  f.worker_bandwidth_bps = 10e9;
  f.aggregator_bandwidth_bps = 10e9;
  f.one_way_latency = sim::microseconds(5);
  f.loss_rate = loss;
  f.seed = 7;
  return f;
}

device::DeviceModel gdr_device() {
  device::DeviceModel d;
  d.gdr = true;
  return d;
}

ClusterSpec test_cluster(std::size_t n_aggregators, double loss = 0.0) {
  return ClusterSpec::dedicated(n_aggregators, test_fabric(loss), gdr_device());
}

std::vector<DenseTensor> random_inputs(std::size_t n_workers, std::size_t n,
                                       std::size_t bs, double sparsity,
                                       std::uint64_t seed,
                                       OverlapMode mode = OverlapMode::kRandom) {
  sim::Rng rng(seed);
  return tensor::make_multi_worker(n_workers, n, bs, sparsity, mode, rng);
}

TEST(StreamLayout, CoversAllBlocksExactlyOnce) {
  Config cfg = small_config();
  cfg.num_streams = 5;
  const StreamLayout layout = StreamLayout::build(16 * 33, cfg);
  std::size_t covered = 0;
  std::size_t prev_hi = 0;
  for (const StreamInfo& s : layout.streams) {
    EXPECT_EQ(s.block_lo, prev_hi);
    EXPECT_GT(s.block_hi, s.block_lo);
    EXPECT_EQ(s.columns, std::min<std::size_t>(4, s.blocks()));
    covered += s.blocks();
    prev_hi = s.block_hi;
  }
  EXPECT_EQ(covered, 33u);
}

TEST(StreamLayout, MoreStreamsThanBlocks) {
  Config cfg = small_config();
  cfg.num_streams = 100;
  const StreamLayout layout = StreamLayout::build(16 * 3, cfg);
  std::size_t covered = 0;
  for (const StreamInfo& s : layout.streams) covered += s.blocks();
  EXPECT_EQ(covered, 3u);
  EXPECT_LE(layout.streams.size(), 3u);
}

TEST(Engine, TwoWorkersSparseCorrect) {
  auto inputs = random_inputs(2, 16 * 64, 16, 0.8, 1);
  RunStats st = run_allreduce(inputs, small_config(), test_cluster(2));
  EXPECT_TRUE(st.verified);
  EXPECT_GT(st.completion_time, 0);
}

TEST(Engine, EightWorkersVariousSparsity) {
  for (double s : {0.0, 0.5, 0.9, 0.99}) {
    auto inputs = random_inputs(8, 16 * 128, 16, s, 11);
    RunStats st = run_allreduce(inputs, small_config(), test_cluster(4));
    EXPECT_TRUE(st.verified) << "sparsity " << s;
  }
}

TEST(Engine, SingleWorker) {
  auto inputs = random_inputs(1, 16 * 32, 16, 0.5, 2);
  DenseTensor original = inputs[0];
  RunStats st = run_allreduce(inputs, small_config(), test_cluster(1));
  EXPECT_TRUE(st.verified);
  EXPECT_EQ(tensor::max_abs_diff(inputs[0], original), 0.0);
}

TEST(Engine, AllZeroTensors) {
  std::vector<DenseTensor> inputs(4, DenseTensor(16 * 64));
  RunStats st = run_allreduce(inputs, small_config(), test_cluster(2));
  EXPECT_TRUE(st.verified);
  for (const auto& t : inputs) EXPECT_EQ(t.nnz(), 0u);
  // Only the unconditional first-round blocks travel.
  EXPECT_GT(st.total_messages, 0u);
}

TEST(Engine, OneWorkerDenseOthersZero) {
  sim::Rng rng(3);
  std::vector<DenseTensor> inputs(4, DenseTensor(16 * 64));
  inputs[2] = tensor::make_block_sparse(16 * 64, 16, 0.0, rng);
  RunStats st = run_allreduce(inputs, small_config(), test_cluster(2));
  EXPECT_TRUE(st.verified);
}

TEST(Engine, DisjointAndIdenticalOverlap) {
  for (OverlapMode mode : {OverlapMode::kNone, OverlapMode::kAll}) {
    auto inputs = random_inputs(4, 16 * 256, 16, 0.9, 5, mode);
    RunStats st = run_allreduce(inputs, small_config(), test_cluster(2));
    EXPECT_TRUE(st.verified);
  }
}

TEST(Engine, PartialLastBlock) {
  // Tensor size not a multiple of the block size.
  sim::Rng rng(6);
  std::vector<DenseTensor> inputs;
  for (int w = 0; w < 3; ++w) {
    DenseTensor t(16 * 20 + 7);
    for (std::size_t i = 0; i < t.size(); i += 3) t[i] = rng.next_float(-1, 1);
    inputs.push_back(std::move(t));
  }
  RunStats st = run_allreduce(inputs, small_config(), test_cluster(2));
  EXPECT_TRUE(st.verified);
}

TEST(Engine, TensorSmallerThanOneBlock) {
  std::vector<DenseTensor> inputs;
  for (int w = 0; w < 4; ++w) {
    DenseTensor t(5);
    t[static_cast<std::size_t>(w)] = 1.0f;
    inputs.push_back(std::move(t));
  }
  RunStats st = run_allreduce(inputs, small_config(), test_cluster(1));
  EXPECT_TRUE(st.verified);
}

TEST(Engine, FusionWidthOne) {
  Config cfg = small_config();
  cfg.packet_elements = 16;  // w = 1: the paper's basic Algorithm 1
  auto inputs = random_inputs(4, 16 * 128, 16, 0.7, 8);
  RunStats st = run_allreduce(inputs, cfg, test_cluster(2));
  EXPECT_TRUE(st.verified);
}

TEST(Engine, WideFusion) {
  Config cfg = small_config();
  cfg.packet_elements = 256;  // w = 16
  auto inputs = random_inputs(4, 16 * 512, 16, 0.95, 9);
  RunStats st = run_allreduce(inputs, cfg, test_cluster(2));
  EXPECT_TRUE(st.verified);
}

TEST(Engine, DenseModeSendsEverything) {
  Config cfg = small_config();
  const std::size_t n = 16 * 128;
  auto inputs = random_inputs(2, n, 16, 0.9, 10);
  Config dense_cfg = cfg;
  dense_cfg.dense_mode = true;
  auto inputs2 = inputs;
  RunStats sparse = run_allreduce(inputs, cfg, test_cluster(2));
  RunStats dense = run_allreduce(inputs2, dense_cfg, test_cluster(2));
  EXPECT_TRUE(dense.verified);
  // Dense mode transmits the full tensor per worker.
  EXPECT_EQ(dense.worker_data_bytes[0], n * 4);
  EXPECT_LT(sparse.worker_data_bytes[0], dense.worker_data_bytes[0]);
  EXPECT_LT(sparse.completion_time, dense.completion_time);
}

TEST(Engine, SparsitySkipsBytes) {
  const std::size_t n = 16 * 1024;
  auto inputs = random_inputs(4, n, 16, 0.9, 12);
  std::vector<std::uint64_t> expected;
  for (const auto& t : inputs) {
    tensor::BlockBitmap bm(t.span(), 16);
    expected.push_back(bm.nonzero_count() * 16 * 4);
  }
  RunStats st = run_allreduce(inputs, small_config(), test_cluster(2));
  // The metadata bootstrap carries no payload, so each worker transmits
  // exactly its non-zero blocks.
  for (std::size_t w = 0; w < inputs.size(); ++w) {
    EXPECT_EQ(st.worker_data_bytes[w], expected[w]);
  }
}

TEST(Engine, HigherSparsityIsFaster) {
  sim::Time prev = sim::kTimeInfinity;
  for (double s : {0.0, 0.6, 0.9, 0.99}) {
    auto inputs = random_inputs(8, 16 * 4096, 16, s, 13);
    RunStats st = run_allreduce(inputs, small_config(), test_cluster(8));
    EXPECT_LT(st.completion_time, prev) << "sparsity " << s;
    prev = st.completion_time;
  }
}

TEST(Engine, ColocatedCorrectAndSlowerOnDense) {
  // Bandwidth-bound setup (many streams, low latency) so the NIC sharing
  // of colocation is the binding constraint, not round-trip latency.
  Config cfg = small_config();
  cfg.num_streams = 64;
  FabricConfig fabric = test_fabric();
  fabric.one_way_latency = sim::microseconds(1);
  auto inputs = random_inputs(4, 16 * 8192, 16, 0.0, 14);
  auto inputs2 = inputs;
  RunStats ded = run_allreduce(inputs, cfg,
                               ClusterSpec::dedicated(4, fabric, gdr_device()));
  RunStats col = run_allreduce(inputs2, cfg,
                               ClusterSpec::colocated(fabric, gdr_device()));
  EXPECT_TRUE(col.verified);
  // Colocation halves effective bandwidth on dense data (§3.4).
  EXPECT_GT(col.completion_time, ded.completion_time);
}

TEST(Engine, MoreAggregatorNodesNoCorrectnessChange) {
  for (std::size_t aggs : {1u, 2u, 3u, 8u}) {
    auto inputs = random_inputs(4, 16 * 512, 16, 0.8, 15);
    RunStats st = run_allreduce(inputs, small_config(), test_cluster(aggs));
    EXPECT_TRUE(st.verified) << aggs << " aggregators";
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  auto a = random_inputs(4, 16 * 512, 16, 0.8, 16);
  auto b = a;
  RunStats sa = run_allreduce(a, small_config(), test_cluster(2));
  RunStats sb = run_allreduce(b, small_config(), test_cluster(2));
  EXPECT_EQ(sa.completion_time, sb.completion_time);
  EXPECT_EQ(sa.total_messages, sb.total_messages);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}


TEST(StreamLayout, FusionWidthFollowsPacketCapacity) {
  Config cfg;
  cfg.block_size = 64;
  cfg.packet_elements = 256;
  EXPECT_EQ(cfg.fusion_width(), 4u);
  cfg.packet_elements = 64;
  EXPECT_EQ(cfg.fusion_width(), 1u);
  cfg.packet_elements = 32;  // smaller than a block: still one block/packet
  EXPECT_EQ(cfg.fusion_width(), 1u);
}

TEST(Engine, AnnouncementAccountingPerStream) {
  // Exactly one payload-less bootstrap announcement per stream per worker;
  // with Algorithm 1 no other empty packets exist.
  Config cfg = small_config();
  auto inputs = random_inputs(3, 16 * 64, 16, 0.5, 41);
  const StreamLayout layout = StreamLayout::build(16 * 64, cfg);
  RunStats st = run_allreduce(inputs, cfg, test_cluster(2));
  EXPECT_TRUE(st.verified);
  EXPECT_EQ(st.acks, 0u);
  // total_messages counts worker TX: announcements + data packets.
  EXPECT_GE(st.total_messages, 3u * layout.streams.size());
}

// ---------------------------------------------------------------------------
// Loss recovery (Algorithm 2)
// ---------------------------------------------------------------------------

TEST(LossRecovery, CorrectUnderLoss) {
  for (double loss : {0.005, 0.01, 0.05}) {
    auto inputs = random_inputs(4, 16 * 2048, 16, 0.8, 17);
    Config cfg = small_config();
    cfg.loss_recovery = true;
    cfg.retransmit_timeout = sim::microseconds(200);
    RunStats st = run_allreduce(inputs, cfg, test_cluster(2, loss));
    EXPECT_TRUE(st.verified) << "loss " << loss;
    EXPECT_GT(st.dropped_messages, 0u);
    EXPECT_GT(st.retransmissions, 0u);
  }
}

TEST(LossRecovery, ZeroLossNoRetransmissions) {
  auto inputs = random_inputs(4, 16 * 256, 16, 0.8, 18);
  Config cfg = small_config();
  cfg.loss_recovery = true;
  cfg.retransmit_timeout = sim::milliseconds(10);
  RunStats st = run_allreduce(inputs, cfg, test_cluster(2, 0.0));
  EXPECT_TRUE(st.verified);
  EXPECT_EQ(st.retransmissions, 0u);
}

TEST(LossRecovery, MatchesAlg1Result) {
  auto inputs = random_inputs(4, 16 * 256, 16, 0.7, 19);
  auto inputs2 = inputs;
  Config cfg = small_config();
  RunStats a1 = run_allreduce(inputs, cfg, test_cluster(2));
  cfg.loss_recovery = true;
  RunStats a2 = run_allreduce(inputs2, cfg, test_cluster(2));
  EXPECT_TRUE(a1.verified && a2.verified);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_LE(tensor::max_abs_diff(inputs[i], inputs2[i]), 1e-4);
  }
}

TEST(LossRecovery, SevereLossStillCompletes) {
  auto inputs = random_inputs(2, 16 * 64, 16, 0.5, 20);
  Config cfg = small_config();
  cfg.loss_recovery = true;
  cfg.retransmit_timeout = sim::microseconds(100);
  RunStats st = run_allreduce(inputs, cfg, test_cluster(1, 0.2));
  EXPECT_TRUE(st.verified);
}

// ---------------------------------------------------------------------------
// Generalized collectives (§7)
// ---------------------------------------------------------------------------

TEST(Collectives, AllGatherConcatenates) {
  sim::Rng rng(21);
  std::vector<DenseTensor> shards;
  std::vector<float> expect;
  for (int w = 0; w < 4; ++w) {
    DenseTensor s(96);
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = rng.next_float(0.5f, 1.5f);
      expect.push_back(s[i]);
    }
    shards.push_back(std::move(s));
  }
  DenseTensor out;
  RunStats st = run_allgather(shards, out, small_config(), test_cluster(2));
  EXPECT_TRUE(st.verified);
  EXPECT_EQ(out, DenseTensor(expect));
}

TEST(Collectives, BroadcastDistributesRootData) {
  sim::Rng rng(22);
  DenseTensor root = tensor::make_block_sparse(16 * 64, 16, 0.5, rng);
  std::vector<DenseTensor> outs;
  RunStats st = run_broadcast(root, 1, 4, outs, small_config(), test_cluster(2));
  EXPECT_TRUE(st.verified);
  ASSERT_EQ(outs.size(), 4u);
  for (const auto& t : outs) EXPECT_EQ(t, root);
}

TEST(Collectives, BroadcastSkipsZeroBlocks) {
  sim::Rng rng(23);
  DenseTensor root = tensor::make_block_sparse(16 * 256, 16, 0.9, rng);
  std::vector<DenseTensor> outs;
  RunStats st = run_broadcast(root, 0, 4, outs, small_config(), test_cluster(2));
  // Only the root transmits payload beyond the first-round blocks.
  EXPECT_GT(st.worker_data_bytes[0], st.worker_data_bytes[1]);
}

// ---------------------------------------------------------------------------
// Sparse key-value extension (Algorithm 3)
// ---------------------------------------------------------------------------

// The verifier sees a NaN: one poisoned element of one worker's allreduce
// result fails the reference check and the registry's verify_error with an
// unbounded error, where the clean results pass.
TEST(Verify, NaNInOneResultFailsTheCheck) {
  const Config cfg = small_config();
  std::vector<DenseTensor> results = random_inputs(4, 4096, 16, 0.5, 11);
  const ReferenceCheck check(results, cfg);
  run_allreduce(results, cfg, test_cluster(2), /*verify=*/false);
  const double tol = 1e-4 * static_cast<double>(results.size());
  EXPECT_TRUE(check.check(results, tol).ok);

  results[2][1234] = std::numeric_limits<float>::quiet_NaN();
  const ReferenceCheck::Outcome outcome = check.check(results, tol);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.max_error, std::numeric_limits<double>::infinity());
  const CollectiveAlgorithm& algo =
      CollectiveRegistry::global().at("omnireduce");
  EXPECT_GT(algo.verify_error(results[2], check.reference()), tol);
  EXPECT_LE(algo.verify_error(results[1], check.reference()), tol);
}

// An all-ones membership mask is no mask: Fabric jobs pass one for every
// step, and the check must neither copy the members' inputs nor differ from
// a check built without it. With a codec on, the input magnitude behind the
// tolerance is covered too.
TEST(Verify, AllOnesMaskMatchesNoMask) {
  Config cfg = small_config();
  cfg.codec.codec = compress::WireCodec::kQ8;
  const std::vector<DenseTensor> inputs = random_inputs(4, 4096, 16, 0.5, 12);
  const ReferenceCheck plain(inputs, cfg);
  const ReferenceCheck masked(inputs, cfg, std::vector<std::uint8_t>(4, 1));
  ASSERT_EQ(masked.reference().size(), plain.reference().size());
  EXPECT_EQ(std::memcmp(masked.reference().values().data(),
                        plain.reference().values().data(),
                        plain.reference().size() * sizeof(float)),
            0);

  std::vector<DenseTensor> results(4, plain.reference());
  for (const float offset : {0.0f, 1e-3f, 0.5f}) {
    results[2][100] = plain.reference()[100] + offset;
    const ReferenceCheck::Outcome a = plain.check(results, 1e-4);
    const ReferenceCheck::Outcome b = masked.check(results, 1e-4);
    EXPECT_EQ(a.max_error, b.max_error) << offset;
    EXPECT_EQ(a.ok, b.ok) << offset;
  }
}

// A result bitwise equal to the last one evaluated is not evaluated again;
// any other, however close, is.
TEST(Verify, CheckSkipsOnlyBitIdenticalResults) {
  const Config cfg = small_config();
  const std::vector<DenseTensor> inputs = random_inputs(4, 4096, 16, 0.5, 13);
  const ReferenceCheck check(inputs, cfg);
  const DenseTensor& ref = check.reference();
  int calls = 0;
  const ReferenceCheck::ErrorFn counting = [&calls](const DenseTensor& result,
                                                    const DenseTensor& r) {
    ++calls;
    return tensor::max_abs_diff(result, r);
  };

  std::vector<DenseTensor> results(6, ref);
  EXPECT_TRUE(check.check(results, 0.0, counting).ok);
  EXPECT_EQ(calls, 1);

  std::size_t zero = 0;
  while (std::signbit(ref[zero]) || ref[zero] != 0.0f) ++zero;
  std::size_t nonzero = 0;
  while (ref[nonzero] == 0.0f) ++nonzero;
  DenseTensor neg_zero = ref;
  neg_zero[zero] = -0.0f;
  DenseTensor one_ulp = ref;
  one_ulp[nonzero] = std::nextafter(ref[nonzero], 2.0f * ref[nonzero]);
  for (const DenseTensor* other : {&neg_zero, &one_ulp}) {
    calls = 0;
    results = {ref, *other};
    check.check(results, 0.0, counting);
    EXPECT_EQ(calls, 2);
  }
  calls = 0;
  results = {ref, ref, neg_zero, neg_zero, ref};
  EXPECT_TRUE(check.check(results, 0.0, counting).ok);
  EXPECT_EQ(calls, 3);
  calls = 0;
  results = {ref, one_ulp};
  EXPECT_FALSE(check.check(results, 0.0, counting).ok);
  EXPECT_EQ(calls, 2);

  results = {ref, ref};
  results[1][nonzero] = std::numeric_limits<float>::quiet_NaN();
  const ReferenceCheck::Outcome nan = check.check(results, 1e-4);
  EXPECT_FALSE(nan.ok);
  EXPECT_EQ(nan.max_error, std::numeric_limits<double>::infinity());
}

TEST(SparseKv, ReducesCorrectly) {
  sim::Rng rng(24);
  const std::size_t dim = 4096;
  std::vector<DenseTensor> dense;
  std::vector<tensor::CooTensor> inputs;
  for (int w = 0; w < 4; ++w) {
    dense.push_back(tensor::make_block_sparse(dim, 8, 0.9, rng));
    inputs.push_back(tensor::dense_to_coo(dense.back()));
  }
  SparseRunStats st = run_sparse_allreduce(inputs, test_fabric(), 64);
  DenseTensor expect = tensor::reference_sum(dense);
  DenseTensor got = tensor::coo_to_dense(st.result);
  EXPECT_LE(tensor::max_abs_diff(got, expect), 1e-4);
  EXPECT_GT(st.rounds, 0u);
}

TEST(SparseKv, EmptyInputs) {
  std::vector<tensor::CooTensor> inputs(3);
  for (auto& t : inputs) t.dim = 128;
  SparseRunStats st = run_sparse_allreduce(inputs, test_fabric(), 16);
  EXPECT_EQ(st.result.nnz(), 0u);
}

TEST(SparseKv, DisjointKeys) {
  std::vector<tensor::CooTensor> inputs;
  for (int w = 0; w < 3; ++w) {
    tensor::CooTensor t;
    t.dim = 300;
    for (int i = 0; i < 50; ++i) {
      t.keys.push_back(w * 100 + i);
      t.values.push_back(1.0f + static_cast<float>(w));
    }
    inputs.push_back(std::move(t));
  }
  SparseRunStats st = run_sparse_allreduce(inputs, test_fabric(), 16);
  EXPECT_EQ(st.result.nnz(), 150u);
  EXPECT_FLOAT_EQ(st.result.values.front(), 1.0f);
  EXPECT_FLOAT_EQ(st.result.values.back(), 3.0f);
}

// ---------------------------------------------------------------------------
// Property sweep: correctness across the parameter cross-product
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<int /*workers*/, double /*sparsity*/,
                              int /*packet_elements*/, int /*aggs*/>;

class EngineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EngineSweep, ReducesCorrectly) {
  const auto [workers, sparsity, packet, aggs] = GetParam();
  Config cfg = small_config();
  cfg.packet_elements = static_cast<std::size_t>(packet);
  auto inputs = random_inputs(static_cast<std::size_t>(workers), 16 * 200, 16,
                              sparsity, 31);
  RunStats st =
      run_allreduce(inputs, cfg, test_cluster(static_cast<std::size_t>(aggs)));
  EXPECT_TRUE(st.verified);
}

INSTANTIATE_TEST_SUITE_P(
    Cross, EngineSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(0.0, 0.5, 0.97),
                       ::testing::Values(16, 64, 128),
                       ::testing::Values(1, 3)));

class LossSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(LossSweep, RecoversCorrectly) {
  const auto [workers, loss] = GetParam();
  Config cfg = small_config();
  cfg.loss_recovery = true;
  cfg.retransmit_timeout = sim::microseconds(150);
  auto inputs = random_inputs(static_cast<std::size_t>(workers), 16 * 128, 16,
                              0.7, 37);
  RunStats st = run_allreduce(inputs, cfg, test_cluster(2, loss));
  EXPECT_TRUE(st.verified);
}

INSTANTIATE_TEST_SUITE_P(
    Cross, LossSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(0.0001, 0.001, 0.01, 0.1)));

}  // namespace
}  // namespace omr::core
