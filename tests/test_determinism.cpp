// Determinism regression tests: the same Config/ClusterSpec/seed must
// produce bit-identical RunStats run after run, on reliable and lossy
// fabrics alike. This is what licenses performance work on the simulator
// internals (event queue, bitmap scans, reduction kernels): any reordering
// or dropped event shows up here as a diverging statistic.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baselines/zoo.h"
#include "core/cluster.h"
#include "core/engine.h"
#include "core/selector.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

struct RunSetup {
  Config cfg;
  ClusterSpec cluster;
};

RunSetup make_setup(Transport transport, double loss_rate) {
  RunSetup s;
  s.cfg = Config::for_transport(transport);
  FabricConfig fabric;
  fabric.loss_rate = loss_rate;
  fabric.seed = 7;
  s.cluster = ClusterSpec::dedicated(4, fabric);
  return s;
}

RunStats run_once(const RunSetup& s) {
  sim::Rng rng(42);
  auto tensors = tensor::make_multi_worker(4, 65536, s.cfg.block_size, 0.85,
                                           tensor::OverlapMode::kRandom, rng);
  return run_allreduce(tensors, s.cfg, s.cluster, /*verify=*/false);
}

void expect_identical(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.worker_finish, b.worker_finish);
  EXPECT_EQ(a.worker_data_bytes, b.worker_data_bytes);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.duplicate_resends, b.duplicate_resends);
}

TEST(Determinism, LosslessRdmaRunsAreBitIdentical) {
  const RunSetup s = make_setup(Transport::kRdma, 0.0);
  const RunStats a = run_once(s);
  const RunStats b = run_once(s);
  expect_identical(a, b);
  EXPECT_EQ(a.retransmissions, 0u);
  EXPECT_GT(a.rounds, 0u);
}

TEST(Determinism, LossyDpdkRunsAreBitIdentical) {
  // Loss injection, retransmission timers and duplicate suppression are all
  // driven by seeded RNGs and the FIFO event order — a lossy run must
  // replay exactly, drops and all.
  const RunSetup s = make_setup(Transport::kDpdk, 0.01);
  const RunStats a = run_once(s);
  const RunStats b = run_once(s);
  expect_identical(a, b);
  EXPECT_GT(a.dropped_messages, 0u);
}

// Golden pins: statistics captured on the pre-topology flat Network. The
// refactor to the link/path fabric must leave the default IdealSwitch runs
// bit-identical — any change to these values is a semantic regression in
// the seed fabric, not an acceptable drift.

TEST(Determinism, LosslessRdmaMatchesPreTopologyGolden) {
  const RunStats a = run_once(make_setup(Transport::kRdma, 0.0));
  EXPECT_EQ(a.completion_time, 467621);
  EXPECT_EQ(a.worker_finish,
            (std::vector<sim::Time>{464999, 465873, 466747, 467621}));
  EXPECT_EQ(a.worker_data_bytes,
            (std::vector<std::uint64_t>{38912, 38912, 38912, 38912}));
  EXPECT_EQ(a.total_messages, 1176u);
  EXPECT_EQ(a.retransmissions, 0u);
  EXPECT_EQ(a.dropped_messages, 0u);
  EXPECT_EQ(a.rounds, 375u);
  EXPECT_EQ(a.acks, 0u);
  EXPECT_EQ(a.duplicate_resends, 0u);
  EXPECT_TRUE(a.links.empty());  // the flat fabric reports no links
}

TEST(Determinism, LossyDpdkMatchesPreTopologyGolden) {
  const RunStats a = run_once(make_setup(Transport::kDpdk, 0.01));
  EXPECT_EQ(a.completion_time, 1353163);
  EXPECT_EQ(a.worker_finish,
            (std::vector<sim::Time>{1350532, 1351409, 1352286, 1353163}));
  EXPECT_EQ(a.worker_data_bytes,
            (std::vector<std::uint64_t>{38912, 38912, 38912, 38912}));
  EXPECT_EQ(a.total_messages, 1578u);
  EXPECT_EQ(a.retransmissions, 78u);
  EXPECT_EQ(a.dropped_messages, 32u);
  EXPECT_EQ(a.rounds, 375u);
  EXPECT_EQ(a.acks, 324u);
  EXPECT_EQ(a.duplicate_resends, 38u);
  EXPECT_TRUE(a.links.empty());
}

TEST(Determinism, TwoTierRunsAreBitIdentical) {
  RunSetup s = make_setup(Transport::kRdma, 0.0);
  s.cluster.topology = TopologySpec::two_tier_racks(2, 4.0);
  const RunStats a = run_once(s);
  const RunStats b = run_once(s);
  expect_identical(a, b);
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t i = 0; i < a.links.size(); ++i) {
    EXPECT_EQ(a.links[i].tx_bytes, b.links[i].tx_bytes);
    EXPECT_EQ(a.links[i].tx_messages, b.links[i].tx_messages);
    EXPECT_EQ(a.links[i].dropped_messages, b.links[i].dropped_messages);
  }
}

// Fault-schedule golden pins: straggler draws, backoff jitter, crash/resync
// timing and liveness deadlines are all seeded, so a FaultSpec replays
// bit-identically — and these exact statistics must survive refactors of
// the fault layer just like the fabric pins above survive fabric work.

TEST(Determinism, StragglerScheduleMatchesGolden) {
  RunSetup s = make_setup(Transport::kRdma, 0.0);
  s.cluster.faults.stragglers.mean_delay_ns = 20000.0;
  const RunStats a = run_once(s);
  expect_identical(a, run_once(s));
  ASSERT_TRUE(a.completed());
  EXPECT_EQ(a.completion_time, 473036);
  EXPECT_EQ(a.worker_finish,
            (std::vector<sim::Time>{470414, 471288, 472162, 473036}));
  EXPECT_EQ(a.total_messages, 1176u);
  EXPECT_EQ(a.rounds, 375u);
  EXPECT_EQ(a.worker_fault_stall_ns,
            (std::vector<sim::Time>{5617803, 6258407, 6115003, 5572876}));
  EXPECT_EQ(a.worker_crashes, 0u);
  EXPECT_EQ(a.resyncs, 0u);
}

TEST(Determinism, CrashRestartScheduleMatchesGolden) {
  RunSetup s = make_setup(Transport::kDpdk, 0.01);
  s.cluster.faults.crashes.push_back(
      {2, sim::microseconds(300), sim::microseconds(150)});
  const RunStats a = run_once(s);
  const RunStats b = run_once(s);
  expect_identical(a, b);
  EXPECT_EQ(a.resyncs, b.resyncs);
  EXPECT_EQ(a.worker_retries, b.worker_retries);
  ASSERT_TRUE(a.completed());
  EXPECT_EQ(a.completion_time, 3096816);
  EXPECT_EQ(a.worker_finish,
            (std::vector<sim::Time>{1419974, 1420851, 1593287, 3096816}));
  EXPECT_EQ(a.total_messages, 1683u);
  EXPECT_EQ(a.retransmissions, 42u);
  EXPECT_EQ(a.dropped_messages, 34u);
  EXPECT_EQ(a.rounds, 375u);
  EXPECT_EQ(a.acks, 332u);
  EXPECT_EQ(a.duplicate_resends, 20u);
  EXPECT_EQ(a.worker_crashes, 1u);
  EXPECT_EQ(a.resyncs, 125u);
  EXPECT_EQ(a.worker_retries,
            (std::vector<std::uint64_t>{15, 13, 2, 12}));
}

// The online selector is a pure function of its prior observations — no
// RNG, no map-iteration-order dependence — so a replayed step sequence
// must reproduce the same per-step choices and the same final stats.

TEST(Determinism, SelectorReplayMakesIdenticalChoices) {
  baselines::register_zoo();
  auto replay = [] {
    OnlineSelector selector;
    ClusterSpec cluster;
    std::vector<std::string> choices;
    RunStats last;
    for (int step = 0; step < 6; ++step) {
      sim::Rng rng(100 + static_cast<std::uint64_t>(step));
      auto ts = tensor::make_multi_worker(
          4, 65536, 256, step % 2 == 0 ? 0.5 : 0.99,
          tensor::OverlapMode::kRandom, rng);
      SelectorDecision d;
      last = selector.run(ts, Config{}, cluster, &d);
      choices.push_back(d.algorithm);
    }
    return std::make_pair(choices, last);
  };
  const auto a = replay();
  const auto b = replay();
  EXPECT_EQ(a.first, b.first);
  expect_identical(a.second, b.second);
}

TEST(Determinism, BurstLossRunsAreBitIdentical) {
  RunSetup s = make_setup(Transport::kDpdk, 0.0);
  s.cfg.retransmit_timeout = sim::microseconds(500);
  s.cluster.fabric.burst_loss.p_good_to_bad = 0.02;
  s.cluster.fabric.burst_loss.p_bad_to_good = 0.25;
  const RunStats a = run_once(s);
  const RunStats b = run_once(s);
  expect_identical(a, b);
  EXPECT_GT(a.dropped_messages, 0u);
  EXPECT_GT(a.retransmissions, 0u);
}

}  // namespace
}  // namespace omr::core
