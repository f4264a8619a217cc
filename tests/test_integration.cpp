// Cross-module integration and property tests:
//  * all AllReduce implementations (OmniReduce, ring, recursive doubling,
//    PS, SparCML, AGsparse, sparse-KV) agree on randomized inputs,
//  * workload-profile gradients flow end-to-end through the engine,
//  * analytic §3.4 model brackets the simulation,
//  * randomized configuration fuzzing keeps the engine correct,
//  * failure injection: protocols survive hostile loss patterns.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/zoo.h"
#include "core/algorithm.h"
#include "core/engine.h"
#include "core/sparse_kv.h"
#include "ddl/workloads.h"
#include "innet/p4_aggregator.h"
#include "perfmodel/perfmodel.h"
#include "sim/rng.h"
#include "tensor/coo.h"
#include "tensor/generators.h"

namespace omr {
namespace {

using tensor::DenseTensor;

core::Config engine_cfg() {
  core::Config cfg;
  cfg.block_size = 16;
  cfg.packet_elements = 64;
  cfg.num_streams = 16;
  cfg.charge_bitmap_cost = false;
  return cfg;
}

core::FabricConfig engine_fabric() {
  core::FabricConfig f;
  f.one_way_latency = sim::microseconds(5);
  return f;
}

device::DeviceModel gdr() {
  device::DeviceModel d;
  d.gdr = true;
  return d;
}

TEST(CrossAlgorithm, AllImplementationsAgree) {
  sim::Rng rng(1);
  const std::size_t n = 16 * 128;
  auto base = tensor::make_multi_worker(4, n, 16, 0.8,
                                        tensor::OverlapMode::kRandom, rng);
  const DenseTensor expect = tensor::reference_sum(base);
  const auto check = [&](const DenseTensor& got, const char* who) {
    EXPECT_LE(tensor::max_abs_diff(got, expect), 1e-3) << who;
  };

  {
    auto ts = base;
    core::run_allreduce(ts, engine_cfg(), core::ClusterSpec::dedicated(2, engine_fabric(), gdr()));
    check(ts[0], "omnireduce");
  }
  // Baselines dispatch through the registry; the default ClusterSpec
  // fabric's bandwidth and latency match the BaselineConfig defaults.
  baselines::register_zoo();
  core::ClusterSpec flat;
  {
    auto ts = base;
    core::run_collective("ring", ts, core::Config{}, flat, /*verify=*/false);
    check(ts[2], "ring");
  }
  {
    auto ts = base;
    core::ClusterSpec ps_cluster = flat;
    ps_cluster.n_aggregator_nodes = 3;
    core::run_collective("ps", ts, core::Config{}, ps_cluster,
                         /*verify=*/false);
    check(ts[1], "parameter server");
  }
  {
    auto ts = base;
    core::run_collective("sparcml_ssar", ts, core::Config{}, flat,
                         /*verify=*/false);
    check(ts[0], "sparcml ssar");
  }
  {
    auto ts = base;
    core::run_collective("agsparse", ts, core::Config{}, flat,
                         /*verify=*/false);
    check(ts[0], "agsparse");
  }
  {
    std::vector<tensor::CooTensor> coo;
    for (const auto& t : base) coo.push_back(tensor::dense_to_coo(t));
    core::SparseRunStats kv =
        core::run_sparse_allreduce(coo, engine_fabric(), 32);
    check(tensor::coo_to_dense(kv.result), "sparse kv");
  }
  {
    auto ts = base;
    innet::P4Config p4;
    p4.block_size = 16;
    innet::run_allreduce_innet(ts, p4);
    check(ts[0], "p4 in-network");
  }
}

TEST(WorkloadIntegration, ProfileGradientsThroughEngine) {
  sim::Rng rng(2);
  for (const char* name : {"DeepLight", "LSTM", "NCF", "BERT"}) {
    auto grads = ddl::sample_gradients(ddl::workload(name), 4, 1 << 16, rng);
    core::Config cfg = core::Config::for_transport(core::Transport::kRdma);
    cfg.charge_bitmap_cost = false;
    core::RunStats st = core::run_allreduce(grads, cfg, core::ClusterSpec::dedicated(4, engine_fabric(), gdr()));
    EXPECT_TRUE(st.verified) << name;
  }
}

TEST(ModelValidation, SimulationWithinModelEnvelope) {
  // Full-overlap dense inputs: simulation must land within [1x, 1.35x] of
  // the closed-form optimum (headers + pipeline fill are the only gaps).
  const std::size_t n = 1 << 20;
  sim::Rng rng(3);
  auto ts = tensor::make_multi_worker(8, n, 256, 0.0,
                                      tensor::OverlapMode::kAll, rng);
  core::Config cfg = core::Config::for_transport(core::Transport::kRdma);
  cfg.charge_bitmap_cost = false;
  core::FabricConfig f = engine_fabric();
  core::RunStats st = core::run_allreduce(ts, cfg, core::ClusterSpec::dedicated(8, f, gdr()), /*verify=*/false);
  perfmodel::ModelParams p;
  p.n_workers = 8;
  p.bandwidth_bps = f.worker_bandwidth_bps;
  p.alpha_s = sim::to_seconds(f.one_way_latency);
  p.tensor_bytes = static_cast<double>(n) * 4.0;
  const double model = perfmodel::t_omnireduce(p);
  const double sim_t = sim::to_seconds(st.completion_time);
  EXPECT_GE(sim_t, model * 0.99);
  EXPECT_LE(sim_t, model * 1.35);
}

TEST(ModelValidation, RingSimMatchesClosedForm) {
  const std::size_t n = 1 << 20;
  sim::Rng rng(4);
  baselines::register_zoo();
  core::ClusterSpec flat;
  for (std::size_t workers : {2u, 4u, 8u}) {
    auto ts = tensor::make_multi_worker(workers, n, 256, 0.0,
                                        tensor::OverlapMode::kRandom, rng);
    const auto st = core::run_collective("ring", ts, core::Config{}, flat,
                                         /*verify=*/false);
    perfmodel::ModelParams p;
    p.n_workers = workers;
    p.bandwidth_bps = flat.fabric.worker_bandwidth_bps;
    p.alpha_s = sim::to_seconds(flat.fabric.one_way_latency);
    p.tensor_bytes = static_cast<double>(n) * 4.0;
    EXPECT_NEAR(sim::to_seconds(st.completion_time), perfmodel::t_ring(p),
                perfmodel::t_ring(p) * 0.12)
        << workers;
  }
}

// Randomized configuration fuzzing: any combination of knobs must reduce
// correctly (the engine throws on verification failure).
class ConfigFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConfigFuzz, RandomConfigStaysCorrect) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  core::Config cfg;
  cfg.block_size = 1u << (2 + rng.next_below(5));        // 4..64
  cfg.packet_elements = cfg.block_size << rng.next_below(4);  // w in 1..8
  cfg.num_streams = 1 + rng.next_below(32);
  cfg.charge_bitmap_cost = false;
  cfg.loss_recovery = rng.next_bool(0.5);
  cfg.retransmit_timeout = sim::microseconds(100 + rng.next_below(400));
  cfg.deterministic_reduction = rng.next_bool(0.3);
  const std::size_t workers = 1 + rng.next_below(8);
  const std::size_t n = cfg.block_size * (1 + rng.next_below(200)) +
                        rng.next_below(cfg.block_size);
  const double sparsity = rng.next_double();
  auto ts = tensor::make_multi_worker(workers, n, cfg.block_size, sparsity,
                                      tensor::OverlapMode::kRandom, rng);
  core::FabricConfig f = engine_fabric();
  f.loss_rate = cfg.loss_recovery ? rng.next_double() * 0.05 : 0.0;
  f.seed = rng.next_u64();
  const std::size_t aggs = 1 + rng.next_below(4);
  const core::ClusterSpec cluster =
      rng.next_bool(0.3) ? core::ClusterSpec::colocated(f, gdr())
                         : core::ClusterSpec::dedicated(aggs, f, gdr());
  core::RunStats st = core::run_allreduce(ts, cfg, cluster);
  EXPECT_TRUE(st.verified);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ConfigFuzz, ::testing::Range(0, 40));

// Failure injection: adversarial loss bursts via very high uniform rates
// and tight timeouts.
class LossTorture : public ::testing::TestWithParam<std::tuple<double, int>> {
};

TEST_P(LossTorture, SurvivesAndStaysCorrect) {
  const auto [loss, seed] = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(seed));
  core::Config cfg;
  cfg.block_size = 16;
  cfg.packet_elements = 32;
  cfg.num_streams = 4;
  cfg.charge_bitmap_cost = false;
  cfg.loss_recovery = true;
  cfg.retransmit_timeout = sim::microseconds(120);
  auto ts = tensor::make_multi_worker(3, 16 * 64, 16, 0.5,
                                      tensor::OverlapMode::kRandom, rng);
  core::FabricConfig f = engine_fabric();
  f.loss_rate = loss;
  f.seed = static_cast<std::uint64_t>(seed) + 1;
  core::RunStats st = core::run_allreduce(ts, cfg, core::ClusterSpec::dedicated(1, f, gdr()));
  EXPECT_TRUE(st.verified);
  if (loss >= 0.2) {
    EXPECT_GT(st.retransmissions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Torture, LossTorture,
    ::testing::Combine(::testing::Values(0.2, 0.35, 0.5),
                       ::testing::Values(1, 2, 3, 4)));

TEST(Accounting, WireBytesConsistent) {
  // TX and RX totals must balance on a lossless fabric.
  sim::Rng rng(11);
  auto ts = tensor::make_multi_worker(4, 16 * 256, 16, 0.7,
                                      tensor::OverlapMode::kRandom, rng);
  sim::Simulator simulator;
  net::Network network(simulator, sim::microseconds(5), 1);
  // Use the engine through its public API; validate via RunStats totals.
  core::Config cfg = engine_cfg();
  core::RunStats st = core::run_allreduce(ts, cfg, core::ClusterSpec::dedicated(2, engine_fabric(), gdr()));
  EXPECT_GT(st.total_messages, 0u);
  EXPECT_EQ(st.dropped_messages, 0u);
}

}  // namespace
}  // namespace omr
