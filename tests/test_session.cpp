#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/collectives.h"
#include "core/session.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

using tensor::DenseTensor;

Config cfg16() {
  Config cfg;
  cfg.block_size = 16;
  cfg.packet_elements = 64;
  cfg.num_streams = 8;
  cfg.charge_bitmap_cost = false;
  return cfg;
}

FabricConfig fab(double loss = 0.0) {
  FabricConfig f;
  f.one_way_latency = sim::microseconds(5);
  f.loss_rate = loss;
  return f;
}

device::DeviceModel gdr() {
  device::DeviceModel d;
  d.gdr = true;
  return d;
}

TEST(Session, BackToBackCollectivesStayCorrect) {
  Session session(cfg16(), 4, ClusterSpec::dedicated(2, fab(), gdr()));
  sim::Rng rng(1);
  for (int iter = 0; iter < 10; ++iter) {
    auto ts = tensor::make_multi_worker(4, 16 * 64, 16, 0.7,
                                        tensor::OverlapMode::kRandom, rng);
    RunStats st = session.allreduce(ts);
    EXPECT_TRUE(st.verified) << "iteration " << iter;
  }
  EXPECT_EQ(session.collectives_run(), 10u);
}

TEST(Session, VirtualTimeAdvancesMonotonically) {
  Session session(cfg16(), 2, ClusterSpec::dedicated(1, fab(), gdr()));
  sim::Rng rng(2);
  sim::Time prev = 0;
  for (int iter = 0; iter < 3; ++iter) {
    auto ts = tensor::make_multi_worker(2, 16 * 32, 16, 0.5,
                                        tensor::OverlapMode::kRandom, rng);
    session.allreduce(ts);
    EXPECT_GT(session.now(), prev);
    prev = session.now();
  }
}

TEST(Session, PerCallStatsAreDeltas) {
  Session session(cfg16(), 3, ClusterSpec::dedicated(1, fab(), gdr()));
  sim::Rng rng(3);
  auto a = tensor::make_multi_worker(3, 16 * 64, 16, 0.5,
                                     tensor::OverlapMode::kRandom, rng);
  auto b = a;
  RunStats first = session.allreduce(a, /*verify=*/false);
  RunStats second = session.allreduce(b, /*verify=*/false);
  // Same workload on an idle fabric: both calls cost the same and count
  // the same messages (counters must not accumulate across calls).
  EXPECT_EQ(first.completion_time, second.completion_time);
  EXPECT_EQ(first.total_messages, second.total_messages);
}

TEST(Session, VaryingTensorSizes) {
  Session session(cfg16(), 4, ClusterSpec::dedicated(2, fab(), gdr()));
  sim::Rng rng(4);
  for (std::size_t n : {16u * 8u, 16u * 200u, 5u, 16u * 64u}) {
    auto ts = tensor::make_multi_worker(4, n, 16, 0.5,
                                        tensor::OverlapMode::kRandom, rng);
    RunStats st = session.allreduce(ts);
    EXPECT_TRUE(st.verified) << n;
  }
}

TEST(Session, SurvivesLossAcrossIterations) {
  Config cfg = cfg16();
  cfg.retransmit_timeout = sim::microseconds(150);
  Session session(cfg, 3, ClusterSpec::dedicated(2, fab(0.03), gdr()));
  sim::Rng rng(5);
  std::uint64_t retx = 0;
  for (int iter = 0; iter < 8; ++iter) {
    auto ts = tensor::make_multi_worker(3, 16 * 128, 16, 0.5,
                                        tensor::OverlapMode::kRandom, rng);
    RunStats st = session.allreduce(ts);
    EXPECT_TRUE(st.verified);
    retx += st.retransmissions;
  }
  EXPECT_GT(retx, 0u);
}

TEST(Session, ColocatedDeployment) {
  Session session(cfg16(), 4, ClusterSpec::colocated(fab(), gdr()));
  sim::Rng rng(6);
  auto ts = tensor::make_multi_worker(4, 16 * 64, 16, 0.5,
                                      tensor::OverlapMode::kRandom, rng);
  EXPECT_TRUE(session.allreduce(ts).verified);
}


TEST(Session, DeterministicReductionAcrossIterations) {
  Config cfg = cfg16();
  cfg.deterministic_reduction = true;
  std::vector<DenseTensor> first_results;
  for (int run = 0; run < 2; ++run) {
    Session session(cfg, 3, ClusterSpec::dedicated(2, fab(), gdr()));
    sim::Rng rng(42);
    DenseTensor last;
    for (int iter = 0; iter < 4; ++iter) {
      auto ts = tensor::make_multi_worker(3, 16 * 64, 16, 0.5,
                                          tensor::OverlapMode::kRandom, rng);
      session.allreduce(ts, /*verify=*/false);
      last = ts[0];
    }
    first_results.push_back(last);
  }
  EXPECT_EQ(first_results[0], first_results[1]);  // bit-identical replays
}

TEST(Session, RejectsBadInput) {
  Session session(cfg16(), 2, ClusterSpec::dedicated(1, fab(), gdr()));
  std::vector<DenseTensor> wrong_count(3, DenseTensor(32));
  EXPECT_THROW(session.allreduce(wrong_count), std::invalid_argument);
  std::vector<DenseTensor> mismatched{DenseTensor(32), DenseTensor(16)};
  EXPECT_THROW(session.allreduce(mismatched), std::invalid_argument);
}

ClusterSpec spec2agg() {
  ClusterSpec cluster = ClusterSpec::dedicated(2);
  cluster.fabric = fab();
  cluster.device = gdr();
  return cluster;
}

TEST(Session, ClusterSpecConstructorRunsCollectives) {
  Session session(cfg16(), 4, spec2agg());
  sim::Rng rng(7);
  auto ts = tensor::make_multi_worker(4, 16 * 64, 16, 0.5,
                                      tensor::OverlapMode::kRandom, rng);
  EXPECT_TRUE(session.allreduce(ts).verified);
  EXPECT_EQ(session.last_report().label, "allreduce");
  EXPECT_EQ(session.last_report().n_workers, 4u);
}

TEST(Session, AllgatherMemberConcatenatesShards) {
  Session session(cfg16(), 3, spec2agg());
  std::vector<DenseTensor> shards;
  for (std::size_t w = 0; w < 3; ++w) {
    DenseTensor s(16 * 8);
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = static_cast<float>(w * 1000 + i);
    }
    shards.push_back(std::move(s));
  }
  DenseTensor out;
  RunStats st = session.allgather(shards, out);
  EXPECT_TRUE(st.verified);
  ASSERT_EQ(out.size(), 3u * 16 * 8);
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::size_t i = 0; i < 16u * 8; ++i) {
      EXPECT_EQ(out[w * 16 * 8 + i], static_cast<float>(w * 1000 + i));
    }
  }
}

TEST(Session, AllgatherMemberMatchesFreeFunction) {
  auto mk = []() {
    std::vector<DenseTensor> shards;
    for (std::size_t w = 0; w < 3; ++w) {
      DenseTensor s(16 * 16);
      for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = static_cast<float>((w + 1) * (i + 1));
      }
      shards.push_back(std::move(s));
    }
    return shards;
  };
  auto shards_a = mk();
  auto shards_b = mk();
  DenseTensor out_free, out_member;
  RunStats free_st =
      run_allgather(shards_a, out_free, cfg16(), spec2agg());
  Session session(cfg16(), 3, spec2agg());
  RunStats member_st = session.allgather(shards_b, out_member);
  EXPECT_EQ(out_free, out_member);
  EXPECT_EQ(free_st.completion_time, member_st.completion_time);
  EXPECT_EQ(free_st.total_messages, member_st.total_messages);
}

TEST(Session, BroadcastMemberDeliversToAll) {
  Session session(cfg16(), 4, spec2agg());
  DenseTensor root(16 * 16);
  for (std::size_t i = 0; i < root.size(); ++i) {
    root[i] = static_cast<float>(i % 97);
  }
  std::vector<DenseTensor> outputs;
  RunStats st = session.broadcast(root, 2, outputs);
  EXPECT_TRUE(st.verified);
  ASSERT_EQ(outputs.size(), 4u);
  for (const auto& o : outputs) EXPECT_EQ(o, root);
  EXPECT_THROW(session.broadcast(root, 4, outputs), std::invalid_argument);
}

TEST(Session, SetAlgorithmRoutesThroughRegistry) {
  Session session(cfg16(), 4, spec2agg());
  session.set_algorithm("omnireduce_kv");
  EXPECT_EQ(session.algorithm(), "omnireduce_kv");
  sim::Rng rng(21);
  auto ts = tensor::make_multi_worker(4, 16 * 64, 16, 0.9,
                                      tensor::OverlapMode::kRandom, rng);
  RunStats st = session.allreduce(ts);
  EXPECT_TRUE(st.verified);
  EXPECT_GT(st.completion_time, 0);
  // Registry dispatch runs on a fresh fabric: the session's own virtual
  // time does not advance, but the collective still counts and reports.
  EXPECT_EQ(session.now(), 0);
  EXPECT_EQ(session.collectives_run(), 1u);
  EXPECT_EQ(session.last_report().algorithm, "omnireduce_kv");
}

TEST(Session, SetAlgorithmUnknownNameThrows) {
  Session session(cfg16(), 2, spec2agg());
  EXPECT_THROW(session.set_algorithm("no_such_algorithm"),
               std::invalid_argument);
  EXPECT_EQ(session.algorithm(), "omnireduce");
}

TEST(Session, SetAlgorithmValidatesCapabilities) {
  // Sparse KV simulates lossless fabrics only; the switch is rejected up
  // front rather than at the next allreduce.
  ClusterSpec lossy = ClusterSpec::dedicated(2);
  lossy.fabric = fab(0.01);
  Session session(cfg16(), 2, lossy);
  EXPECT_THROW(session.set_algorithm("omnireduce_kv"), std::invalid_argument);
  EXPECT_EQ(session.algorithm(), "omnireduce");
}

TEST(Session, SetAlgorithmRestoresNativePath) {
  Session session(cfg16(), 3, spec2agg());
  sim::Rng rng(22);
  auto ts = tensor::make_multi_worker(3, 16 * 64, 16, 0.5,
                                      tensor::OverlapMode::kRandom, rng);
  session.set_algorithm("switchml");
  EXPECT_TRUE(session.allreduce(ts).verified);
  EXPECT_EQ(session.now(), 0);
  session.set_algorithm("omnireduce");
  auto ts2 = tensor::make_multi_worker(3, 16 * 64, 16, 0.5,
                                       tensor::OverlapMode::kRandom, rng);
  EXPECT_TRUE(session.allreduce(ts2).verified);
  EXPECT_GT(session.now(), 0);
  // The native path leaves the report's algorithm field empty so existing
  // report JSON stays byte-identical.
  EXPECT_TRUE(session.last_report().algorithm.empty());
}

TEST(Session, BroadcastMemberMatchesFreeFunction) {
  DenseTensor root(16 * 16);
  for (std::size_t i = 0; i < root.size(); ++i) {
    root[i] = static_cast<float>(i) * 0.5f;
  }
  std::vector<DenseTensor> out_free, out_member;
  RunStats free_st =
      run_broadcast(root, 1, 3, out_free, cfg16(), spec2agg());
  Session session(cfg16(), 3, spec2agg());
  RunStats member_st = session.broadcast(root, 1, out_member);
  ASSERT_EQ(out_free.size(), out_member.size());
  for (std::size_t w = 0; w < out_free.size(); ++w) {
    EXPECT_EQ(out_free[w], out_member[w]);
  }
  EXPECT_EQ(free_st.completion_time, member_st.completion_time);
  EXPECT_EQ(free_st.total_messages, member_st.total_messages);
}

TEST(Session, MixedCollectivesShareOneDeployment) {
  Session session(cfg16(), 3, spec2agg());
  sim::Rng rng(9);
  auto ts = tensor::make_multi_worker(3, 16 * 32, 16, 0.5,
                                      tensor::OverlapMode::kRandom, rng);
  EXPECT_TRUE(session.allreduce(ts).verified);
  std::vector<DenseTensor> shards(3, DenseTensor(16 * 4));
  for (std::size_t w = 0; w < 3; ++w) shards[w][0] = static_cast<float>(w + 1);
  DenseTensor gathered;
  EXPECT_TRUE(session.allgather(shards, gathered).verified);
  std::vector<DenseTensor> outputs;
  EXPECT_TRUE(session.broadcast(gathered, 0, outputs).verified);
  EXPECT_EQ(session.collectives_run(), 3u);
  EXPECT_EQ(session.last_report().label, "broadcast");
}

// One run path: the first collective of a fresh Session and a one-shot
// run_allreduce_report over the same inputs are the same run, so they must
// serialize to the same report bytes (trace included) and leave the same
// results, with telemetry off and on.
TEST(Session, FirstCollectiveMatchesOneShotReport) {
  struct Case {
    std::string name;
    Config cfg;
    ClusterSpec cluster;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"dedicated", cfg16(), ClusterSpec::dedicated(2, fab(), gdr())});
  cases.push_back(
      {"colocated", cfg16(), ClusterSpec::colocated(fab(), gdr())});
  ClusterSpec two_tier = ClusterSpec::dedicated(2, fab());
  two_tier.topology = TopologySpec::two_tier_racks(2, 4.0);
  cases.push_back({"two_tier_4to1", cfg16(), two_tier});
  Config lossy_cfg = cfg16();
  lossy_cfg.retransmit_timeout = sim::microseconds(150);
  cases.push_back(
      {"lossy_1pct", lossy_cfg, ClusterSpec::dedicated(2, fab(0.01), gdr())});
  Config q8 = cfg16();
  q8.codec.codec = compress::WireCodec::kQ8;
  cases.push_back({"q8", q8, ClusterSpec::dedicated(2, fab(), gdr())});

  for (const Case& c : cases) {
    for (bool telemetry : {false, true}) {
      ClusterSpec cluster = c.cluster;
      cluster.telemetry.enabled = telemetry;
      sim::Rng rng(11);
      auto one_shot = tensor::make_multi_worker(
          4, 16 * 256, 16, 0.7, tensor::OverlapMode::kRandom, rng);
      auto in_session = one_shot;

      std::ostringstream expect;
      run_allreduce_report(one_shot, c.cfg, cluster).write_json(expect, true);
      Session session(c.cfg, 4, cluster);
      session.allreduce(in_session);
      std::ostringstream got;
      session.last_report().write_json(got, true);

      EXPECT_EQ(got.str(), expect.str())
          << c.name << " telemetry=" << telemetry;
      EXPECT_EQ(in_session, one_shot) << c.name << " telemetry=" << telemetry;
    }
  }
}

}  // namespace
}  // namespace omr::core
