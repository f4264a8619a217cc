#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/aggregator.h"
#include "core/collectives.h"
#include "core/fabric.h"
#include "core/run_context.h"
#include "core/session.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "telemetry/telemetry.h"
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

  // A config without blocks or streams has no layout to plan.
  const ClusterSpec cluster = ClusterSpec::dedicated(1, fab(), gdr());
  Config no_blocks = cfg16();
  no_blocks.block_size = 0;
  Config no_streams = cfg16();
  no_streams.num_streams = 0;
  for (const Config& bad : {no_blocks, no_streams}) {
    EXPECT_THROW(Session(bad, 2, cluster), std::invalid_argument);
    std::vector<DenseTensor> ts(2, DenseTensor(32, 1.0f));
    EXPECT_THROW(run_allreduce(ts, bad, cluster), std::invalid_argument);
  }
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

// ---------------------------------------------------------------------------
// Reused-state goldens
//
// A Session keeps its workers' and aggregators' protocol objects (packets,
// slot tables, next-block tables, quantized accumulators, codec sidecars)
// alive across collectives. One Session per configuration runs a sequence
// that grows, shrinks (down to a single stream) and hits a size that is
// not a multiple of the block size; after every collective the result and
// the counters must match values recorded before any of that state was
// pooled. Never re-record these values.

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::size_t kReuseSizes[] = {16 * 64, 16 * 256, 16 * 32, 5,
                                       16 * 100 + 7, 16 * 256};
constexpr std::size_t kReuseSteps = std::size(kReuseSizes);

struct StepPin {
  std::uint64_t tensors;  // FNV-1a of every worker tensor, in worker order
  std::uint64_t rounds;
  std::uint64_t messages;
  sim::Time completion;
};

struct ReusePin {
  const char* name;
  StepPin steps[kReuseSteps];
};

constexpr ReusePin kReusePins[] = {
    {"rdma",
     {
      {0x92c045e969257d4dULL, 23, 80, 38381},
      {0x97a1878b1ddf6795ULL, 64, 206, 105317},
      {0xf83ea8484a1bea95ULL, 16, 56, 26473},
      {0xf14b84b8290b8965ULL, 1, 4, 10580},
      {0x60ddd7521df3cbe5ULL, 35, 105, 61550},
      {0x7ca44c5f38d45b25ULL, 65, 208, 108369},
     }},
    {"dpdk_lossless",
     {
      {0x92c045e969257d4dULL, 23, 92, 38381},
      {0x97a1878b1ddf6795ULL, 64, 256, 105548},
      {0xf83ea8484a1bea95ULL, 16, 64, 26473},
      {0xf14b84b8290b8965ULL, 1, 4, 10580},
      {0x60ddd7521df3cbe5ULL, 35, 140, 61166},
      {0x7ca44c5f38d45b25ULL, 65, 260, 108881},
     }},
    {"rdma_q8",
     {
      {0xf0fa778f3bafc53dULL, 23, 80, 40837},
      {0xc3d32b28479ffb5dULL, 64, 206, 106195},
      {0xca4c5c5b04a74525ULL, 16, 56, 29398},
      {0xf14b84b8290b8965ULL, 1, 4, 15580},
      {0xc816edf88741d8b5ULL, 35, 105, 63270},
      {0x2194a7e47909e475ULL, 65, 208, 107805},
     }},
    {"dpdk_q8",
     {
      {0xf0fa778f3bafc53dULL, 23, 92, 40727},
      {0xc3d32b28479ffb5dULL, 64, 256, 106057},
      {0xca4c5c5b04a74525ULL, 16, 64, 29475},
      {0xf14b84b8290b8965ULL, 1, 4, 15580},
      {0xc816edf88741d8b5ULL, 35, 140, 63132},
      {0x2194a7e47909e475ULL, 65, 260, 107259},
     }},
    {"deterministic",
     {
      {0x92c045e969257d4dULL, 23, 80, 38381},
      {0x97a1878b1ddf6795ULL, 64, 206, 105317},
      {0xf83ea8484a1bea95ULL, 16, 56, 26473},
      {0xf14b84b8290b8965ULL, 1, 4, 10580},
      {0x60ddd7521df3cbe5ULL, 35, 105, 61550},
      {0x7ca44c5f38d45b25ULL, 65, 208, 108369},
     }},
    {"colocated",
     {
      {0x92c045e969257d4dULL, 23, 172, 37556},
      {0x97a1878b1ddf6795ULL, 64, 462, 105697},
      {0xf83ea8484a1bea95ULL, 16, 120, 24861},
      {0xf14b84b8290b8965ULL, 1, 8, 10580},
      {0x60ddd7521df3cbe5ULL, 35, 245, 59858},
      {0x7ca44c5f38d45b25ULL, 65, 468, 106106},
     }},
};

struct ReuseCase {
  Config cfg;
  ClusterSpec cluster;
};

ReuseCase reuse_case(const std::string& name) {
  ReuseCase c{cfg16(), ClusterSpec::dedicated(2, fab(), gdr())};
  if (name == "dpdk_lossless" || name == "dpdk_q8") c.cfg.loss_recovery = true;
  if (name == "rdma_q8" || name == "dpdk_q8") {
    c.cfg.codec.codec = compress::WireCodec::kQ8;
  }
  if (name == "deterministic") c.cfg.deterministic_reduction = true;
  if (name == "colocated") c.cluster = ClusterSpec::colocated(fab(), gdr());
  return c;
}

TEST(Session, ReusedStateMatchesGoldens) {
  for (const ReusePin& pin : kReusePins) {
    const ReuseCase c = reuse_case(pin.name);
    Session session(c.cfg, 4, c.cluster);
    sim::Rng rng(77);
    std::string record;
    for (std::size_t i = 0; i < kReuseSteps; ++i) {
      auto ts = tensor::make_multi_worker(4, kReuseSizes[i], 16, 0.7,
                                          tensor::OverlapMode::kRandom, rng);
      const RunStats st = session.allreduce(ts);
      EXPECT_TRUE(st.verified) << pin.name << " step " << i;
      std::uint64_t h = kFnvBasis;
      for (const auto& t : ts) {
        h = fnv(h, t.values().data(), t.size() * sizeof(float));
      }
      const StepPin got{h, st.rounds, st.total_messages, st.completion_time};
      const StepPin& want = pin.steps[i];
      EXPECT_EQ(got.tensors, want.tensors) << pin.name << " step " << i;
      EXPECT_EQ(got.rounds, want.rounds) << pin.name << " step " << i;
      EXPECT_EQ(got.messages, want.messages) << pin.name << " step " << i;
      EXPECT_EQ(got.completion, want.completion) << pin.name << " step " << i;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "      {0x%016llxULL, %llu, %llu, %lld},\n",
                    static_cast<unsigned long long>(got.tensors),
                    static_cast<unsigned long long>(got.rounds),
                    static_cast<unsigned long long>(got.messages),
                    static_cast<long long>(got.completion));
      record += line;
    }
    if (::testing::Test::HasFailure()) {
      std::printf("    {\"%s\",\n     {\n%s     }},\n", pin.name,
                  record.c_str());
    }
  }
}

// The aggregator's slot table is reused across collectives: a stream that
// is not registered in the current collective — never registered, beyond
// every id seen so far, or registered only in an earlier collective — must
// still be rejected (or, with an elastic membership set, dropped and
// counted), exactly as before any slot was reused.
TEST(Session, AggregatorRejectsStreamsOutsideTheCurrentCollective) {
  sim::Simulator simulator;
  net::Network network(simulator, sim::microseconds(5));
  Aggregator agg(cfg16(), network, 2);
  const StreamInfo info{0, 4, 4};
  auto packet = [](std::uint32_t stream) {
    auto p = std::make_shared<DataPacket>();
    p->stream = stream;
    p->next.assign(4, tensor::kNoBlock);
    return net::MessagePtr(p);
  };
  agg.begin_collective();
  agg.add_stream(0, info);
  agg.add_stream(5, info);
  EXPECT_FALSE(agg.done());
  EXPECT_THROW(agg.on_message(0, packet(3)), std::logic_error);
  EXPECT_THROW(agg.on_message(0, packet(100)), std::logic_error);

  agg.begin_collective();
  EXPECT_TRUE(agg.done());  // no stream registered yet
  agg.add_stream(0, info);
  EXPECT_THROW(agg.on_message(0, packet(5)), std::logic_error);

  agg.set_active_workers({1, 1});
  agg.begin_collective();
  agg.add_stream(0, info);
  agg.on_message(0, packet(5));
  agg.on_message(0, packet(100));
  EXPECT_EQ(agg.stale_drops(), 2u);
}

// A packet pool takes back only its own packet type: any other message
// handed to recycle (a resync request, the other leg's packets) is
// released, neither pooled nor parked, and the free lists stay as they
// were.
TEST(PacketPool, RecycleDropsOtherMessageTypes) {
  PacketPool<DataPacket> pool(4);
  std::shared_ptr<DataPacket> pkt = pool.acquire(/*carries_columns=*/true);
  const DataPacket* first = pkt.get();
  net::MessagePtr sent = std::move(pkt);
  pool.recycle(sent);
  EXPECT_EQ(sent, nullptr);

  auto request = std::make_shared<ResyncRequest>();
  auto result = std::make_shared<ResultPacket>();
  for (net::MessagePtr other :
       {net::MessagePtr(request), net::MessagePtr(result)}) {
    pool.recycle(other);
    EXPECT_EQ(other, nullptr);
  }
  EXPECT_EQ(request.use_count(), 1);
  EXPECT_EQ(result.use_count(), 1);
  net::MessagePtr none;
  pool.recycle(none);

  // The one packet recycled is the one pooled: the next acquire returns it
  // with its column row, the one after creates a new packet.
  const auto again = pool.acquire(true);
  EXPECT_EQ(again.get(), first);
  EXPECT_GE(again->columns.capacity(), 4u);
  EXPECT_NE(pool.acquire(true).get(), first);
}

// Stream ownership law of CollectivePlan, for more streams than
// aggregators, as many, fewer, and a count that is not a multiple of the
// aggregator count: every stream has one owner, the per-aggregator counts
// the timeout is sized from match the owner table, and in a traced
// collective each aggregator opens exactly the streams the table gives it,
// in increasing order, and aggregates worker packets only for those.
TEST(CollectivePlan, WorkersAndAggregatorsAgreeOnOneOwnerPerStream) {
  struct Shape {
    std::size_t streams;
    std::size_t aggs;
  };
  for (const Shape sh : {Shape{12, 4}, Shape{4, 4}, Shape{2, 4}, Shape{7, 3}}) {
    SCOPED_TRACE(std::to_string(sh.streams) + " streams on " +
                 std::to_string(sh.aggs) + " aggregators");
    Config cfg = cfg16();
    cfg.num_streams = sh.streams;
    const std::size_t n = 16 * 64;  // 64 blocks: no stream is empty

    sim::Simulator simulator;
    net::Network bare(
        simulator, make_topology(TopologySpec{}, sim::microseconds(5), {}), 1);
    std::vector<net::NicId> worker_nics;
    std::vector<net::NicId> agg_nics;
    std::vector<net::EndpointId> agg_eps;
    for (std::size_t w = 0; w < 3; ++w) {
      worker_nics.push_back(bare.add_nic({}));
    }
    for (std::size_t a = 0; a < sh.aggs; ++a) {
      agg_nics.push_back(bare.add_nic({}));
      agg_eps.push_back(static_cast<net::EndpointId>(100 + a));
    }
    const CollectivePlan plan =
        plan_collective(cfg, n, bare, worker_nics, agg_nics, agg_eps);
    ASSERT_EQ(plan.owner.size(), sh.streams);
    std::vector<std::size_t> counts(sh.aggs, 0);
    for (std::size_t s = 0; s < sh.streams; ++s) {
      ASSERT_LT(plan.owner[s], sh.aggs);
      ++counts[plan.owner[s]];
      EXPECT_EQ(plan.owner_ep(s), agg_eps[plan.owner[s]]);
    }
    EXPECT_EQ(plan.streams_on_agg, counts);

    ClusterSpec cluster = ClusterSpec::dedicated(sh.aggs, fab());
    cluster.telemetry.enabled = true;
    cluster.telemetry.trace_events = true;
    Session session(cfg, 3, cluster);
    sim::Rng rng(5);
    auto tensors = tensor::make_multi_worker(
        3, n, cfg.block_size, 0.3, tensor::OverlapMode::kRandom, rng);
    ASSERT_TRUE(session.allreduce(tensors).verified);
    std::vector<std::vector<std::uint32_t>> opened(sh.aggs);
    std::size_t aggregated = 0;
    for (const telemetry::Event& e : session.last_report().trace.events) {
      if (!telemetry::is_aggregator_pid(e.pid)) continue;
      const auto a =
          static_cast<std::size_t>(e.pid - telemetry::aggregator_pid(0));
      if (e.kind == telemetry::EventKind::kSlotOpen) {
        opened[a].push_back(e.stream);
      } else if (e.kind == telemetry::EventKind::kSlotAggregate) {
        ASSERT_LT(e.stream, sh.streams);
        EXPECT_EQ(plan.owner[e.stream], a) << "stream " << e.stream;
        ++aggregated;
      }
    }
    EXPECT_GT(aggregated, 0u);
    for (std::size_t a = 0; a < sh.aggs; ++a) {
      std::vector<std::uint32_t> owned;
      for (std::size_t s = 0; s < sh.streams; ++s) {
        if (plan.owner[s] == a) owned.push_back(static_cast<std::uint32_t>(s));
      }
      EXPECT_EQ(opened[a], owned) << "aggregator " << a;
    }
  }
}

}  // namespace
}  // namespace omr::core
