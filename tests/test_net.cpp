#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "net/tcp_model.h"
#include "sim/event_queue.h"

namespace omr::net {
namespace {

struct Blob final : Message {
  explicit Blob(std::size_t n, int tag = 0) : bytes(n), tag(tag) {}
  std::size_t bytes;
  int tag;
  std::size_t wire_bytes() const override { return bytes; }
};

struct Recorder final : Endpoint {
  struct Rx {
    EndpointId from;
    sim::Time at;
    int tag;
  };
  std::vector<Rx> received;
  sim::Simulator* sim = nullptr;
  void on_message(EndpointId from, const MessagePtr& msg) override {
    const auto* b = message_cast<Blob>(msg.get());
    received.push_back({from, sim->now(), b ? b->tag : -1});
  }
};

struct Probe final : Message {
  std::size_t wire_bytes() const override { return 1; }
};

TEST(Message, CastChecksTheExactType) {
  const MessagePtr blob = make_message<Blob>(8, 3);
  const MessagePtr probe = make_message<Probe>();
  const Blob* b = message_cast<Blob>(blob.get());
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b, blob.get());
  EXPECT_EQ(b->tag, 3);
  EXPECT_EQ(message_cast<Probe>(blob.get()), nullptr);
  EXPECT_EQ(message_cast<Blob>(probe.get()), nullptr);
  EXPECT_NE(message_cast<Probe>(probe.get()), nullptr);
  EXPECT_EQ(message_cast<Blob>(nullptr), nullptr);
}

struct Fixture {
  sim::Simulator sim;
  Network net;
  Fixture(sim::Time latency = sim::microseconds(10), std::uint64_t seed = 1)
      : net(sim, latency, seed) {}
  std::pair<EndpointId, Recorder*> make_node(double bw = 10e9) {
    auto* r = new Recorder;  // owned by recorders
    r->sim = &sim;
    recorders.push_back(std::unique_ptr<Recorder>(r));
    NicId nic = net.add_nic({bw, bw});
    return {net.attach(r, nic), r};
  }
  std::vector<std::unique_ptr<Recorder>> recorders;
};

TEST(Network, DeliveryTimeMatchesBandwidthPlusLatency) {
  Fixture f(sim::microseconds(10));
  auto [a, ra] = f.make_node(10e9);
  auto [b, rb] = f.make_node(10e9);
  (void)ra;
  // 1250 bytes at 10 Gbps = 1 us TX + 10 us latency + 1 us RX = 12 us.
  f.net.send(a, b, make_message<Blob>(1250));
  f.sim.run();
  ASSERT_EQ(rb->received.size(), 1u);
  EXPECT_EQ(rb->received[0].at, sim::microseconds(12));
  EXPECT_EQ(rb->received[0].from, a);
}

TEST(Network, TxSerializationQueuesBackToBack) {
  Fixture f(0);
  auto [a, ra] = f.make_node(10e9);
  auto [b, rb] = f.make_node(10e9);
  (void)ra;
  // Two 1250-byte messages: second departs after the first's 1 us TX slot.
  f.net.send(a, b, make_message<Blob>(1250, 1));
  f.net.send(a, b, make_message<Blob>(1250, 2));
  f.sim.run();
  ASSERT_EQ(rb->received.size(), 2u);
  EXPECT_EQ(rb->received[0].at, sim::microseconds(2));
  EXPECT_EQ(rb->received[1].at, sim::microseconds(3));
  EXPECT_EQ(rb->received[0].tag, 1);
  EXPECT_EQ(rb->received[1].tag, 2);
}

TEST(Network, IncastSharesReceiverBandwidth) {
  // 4 senders, one receiver: RX serialization must spread deliveries.
  Fixture f(0);
  auto [dst, rd] = f.make_node(10e9);
  std::vector<EndpointId> srcs;
  for (int i = 0; i < 4; ++i) srcs.push_back(f.make_node(10e9).first);
  for (EndpointId s : srcs) f.net.send(s, dst, make_message<Blob>(12500));
  f.sim.run();
  ASSERT_EQ(rd->received.size(), 4u);
  // Each message takes 10 us of RX; last one completes at ~40+10 us? No:
  // all four arrive after their own 10 us TX, then serialize on RX:
  // delivery times 20, 30, 40, 50 us.
  EXPECT_EQ(rd->received[3].at, sim::microseconds(50));
}

TEST(Network, InOrderPerPair) {
  Fixture f(sim::microseconds(5));
  auto [a, ra] = f.make_node();
  auto [b, rb] = f.make_node();
  (void)ra;
  for (int i = 0; i < 20; ++i) f.net.send(a, b, make_message<Blob>(100, i));
  f.sim.run();
  ASSERT_EQ(rb->received.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rb->received[static_cast<size_t>(i)].tag, i);
}

TEST(Network, StatsCountBytesAndMessages) {
  Fixture f;
  auto [a, ra] = f.make_node();
  auto [b, rb] = f.make_node();
  (void)ra;
  (void)rb;
  f.net.send(a, b, make_message<Blob>(1000));
  f.net.send(a, b, make_message<Blob>(500));
  f.sim.run();
  const NicStats& sa = f.net.nic_stats(f.net.nic_of(a));
  const NicStats& sb = f.net.nic_stats(f.net.nic_of(b));
  EXPECT_EQ(sa.tx_bytes, 1500u);
  EXPECT_EQ(sa.tx_messages, 2u);
  EXPECT_EQ(sb.rx_bytes, 1500u);
  EXPECT_EQ(sb.rx_messages, 2u);
}

TEST(Network, LossDropsApproximatelyAtConfiguredRate) {
  Fixture f(0, 42);
  auto [a, ra] = f.make_node(100e9);
  auto [b, rb] = f.make_node(100e9);
  (void)ra;
  f.net.set_loss_rate(0.1);
  const int n = 20000;
  for (int i = 0; i < n; ++i) f.net.send(a, b, make_message<Blob>(10));
  f.sim.run();
  const double delivered = static_cast<double>(rb->received.size());
  EXPECT_NEAR(delivered / n, 0.9, 0.01);
  EXPECT_EQ(f.net.total_dropped(), n - rb->received.size());
}

TEST(Network, ZeroLossDeliversEverything) {
  Fixture f;
  auto [a, ra] = f.make_node();
  auto [b, rb] = f.make_node();
  (void)ra;
  for (int i = 0; i < 1000; ++i) f.net.send(a, b, make_message<Blob>(10));
  f.sim.run();
  EXPECT_EQ(rb->received.size(), 1000u);
}

TEST(Network, SwitchMulticastPaysOneTxSerialization) {
  Fixture f(0);
  auto [src, rs] = f.make_node(10e9);
  (void)rs;
  std::vector<EndpointId> dsts;
  std::vector<Recorder*> recs;
  for (int i = 0; i < 4; ++i) {
    auto [ep, r] = f.make_node(10e9);
    dsts.push_back(ep);
    recs.push_back(r);
  }
  f.net.send_switch_multicast(src, dsts, make_message<Blob>(1250));
  f.sim.run();
  // One 1 us TX; each receiver: +1 us RX => all delivered at 2 us.
  for (auto* r : recs) {
    ASSERT_EQ(r->received.size(), 1u);
    EXPECT_EQ(r->received[0].at, sim::microseconds(2));
  }
  EXPECT_EQ(f.net.nic_stats(f.net.nic_of(src)).tx_messages, 1u);
}

TEST(Network, ColocatedEndpointsShareNic) {
  Fixture f(0);
  auto [a, ra] = f.make_node(10e9);
  (void)ra;
  // Attach a second endpoint to a's NIC.
  auto* r2 = new Recorder;
  r2->sim = &f.sim;
  f.recorders.push_back(std::unique_ptr<Recorder>(r2));
  EndpointId a2 = f.net.attach(r2, f.net.nic_of(a));
  auto [b, rb] = f.make_node(10e9);
  (void)rb;
  // Both endpoints send: serialization is shared -> total 2 us TX.
  f.net.send(a, b, make_message<Blob>(1250));
  f.net.send(a2, b, make_message<Blob>(1250));
  f.sim.run();
  EXPECT_EQ(f.net.nic_stats(f.net.nic_of(a)).tx_bytes, 2500u);
}

TEST(Network, InvalidConfigThrows) {
  Fixture f;
  EXPECT_THROW(f.net.add_nic({0.0, 10e9}), std::invalid_argument);
  EXPECT_THROW(f.net.attach(nullptr, 0), std::invalid_argument);
  Recorder r;
  EXPECT_THROW(f.net.attach(&r, 99), std::out_of_range);
  // A tenant weight must be finite and > 0.
  for (double w : {0.0, std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(f.net.set_tenants({1.0, w}), std::invalid_argument) << w;
  }
}

TEST(Network, NaNBandwidthIsRejected) {
  Fixture f;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(f.net.add_nic({nan, 10e9}), std::invalid_argument);
  EXPECT_THROW(f.net.add_nic({10e9, nan}), std::invalid_argument);
  EXPECT_THROW(f.net.add_nic({10e9, 10e9, nan}), std::invalid_argument);
  EXPECT_THROW(f.net.add_nic({10e9, 10e9, -1.0}), std::invalid_argument);
}


TEST(Network, RxMessageOverheadSlowsSmallPackets) {
  // 1000 tiny messages: with 1 us per-message RX cost, delivery takes at
  // least 1 ms regardless of bandwidth.
  Fixture f(0);
  auto [a, ra] = f.make_node(100e9);
  (void)ra;
  auto* r = new Recorder;
  r->sim = &f.sim;
  f.recorders.push_back(std::unique_ptr<Recorder>(r));
  NicId nic = f.net.add_nic({100e9, 100e9, 1000.0});
  EndpointId b = f.net.attach(r, nic);
  for (int i = 0; i < 1000; ++i) f.net.send(a, b, make_message<Blob>(10));
  f.sim.run();
  ASSERT_EQ(r->received.size(), 1000u);
  EXPECT_GE(r->received.back().at, sim::milliseconds(1));
}

TEST(Network, TraceRecordsDeliveriesAndDrops) {
  Fixture f(sim::microseconds(2), 5);
  auto [a, ra] = f.make_node();
  auto [b, rb] = f.make_node();
  (void)ra;
  f.net.set_loss_rate(0.5);
  const std::size_t n = 2000;
  for (std::size_t i = 0; i < n; ++i) {
    f.net.send(a, b, make_message<Blob>(100, static_cast<int>(i)));
  }
  f.sim.run();
  // Every sent message is either delivered or dropped, exactly once.
  const std::size_t received = rb->received.size();
  EXPECT_EQ(f.net.nic_stats(f.net.nic_of(a)).tx_messages, n);
  EXPECT_EQ(received + f.net.total_dropped(), n);
  EXPECT_EQ(f.net.nic_stats(f.net.nic_of(b)).rx_messages, received);
  EXPECT_EQ(f.net.nic_stats(f.net.nic_of(b)).rx_bytes, received * 100);
  int last_tag = -1;
  for (const Recorder::Rx& rx : rb->received) {
    EXPECT_EQ(rx.from, a);
    EXPECT_GT(rx.tag, last_tag);  // survivors arrive in send order
    last_tag = rx.tag;
  }
  EXPECT_NEAR(static_cast<double>(f.net.total_dropped()) / n, 0.5, 0.05);
}

// Removal pin for the external-traffic hook: NIC counters change only
// through simulated sends, so bytes and messages stay conserved across
// NICs, links and drops. The detection idiom makes any reintroduction of
// the hook's signature a compile-visible failure here.
template <typename T, typename = void>
struct has_legacy_external_traffic : std::false_type {};
template <typename T>
struct has_legacy_external_traffic<
    T, std::void_t<decltype(std::declval<T&>().add_external_traffic(
           std::declval<NicId>(), std::uint64_t{0}, std::uint64_t{0}))>>
    : std::true_type {};

static_assert(!has_legacy_external_traffic<Network>::value,
              "Network::add_external_traffic was removed: NIC counters "
              "change only through simulated sends; do not reintroduce an "
              "external-traffic hook");

TEST(Network, LegacyExternalTrafficHookStaysRemoved) {
  EXPECT_FALSE(has_legacy_external_traffic<Network>::value);
}

TEST(Network, SwitchMulticastIndependentDropsUnderLoss) {
  Fixture f(0, 7);
  f.net.set_loss_rate(0.3);
  auto [src, rs] = f.make_node(100e9);
  (void)rs;
  std::vector<EndpointId> dsts;
  std::vector<Recorder*> recs;
  for (int i = 0; i < 4; ++i) {
    auto [ep, r] = f.make_node(100e9);
    dsts.push_back(ep);
    recs.push_back(r);
  }
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    f.net.send_switch_multicast(src, dsts, make_message<Blob>(100, i));
  }
  f.sim.run();
  // Single TX serialization per multicast regardless of fan-out.
  EXPECT_EQ(f.net.nic_stats(f.net.nic_of(src)).tx_messages,
            static_cast<std::uint64_t>(n));
  // Drops are per-receiver: every copy draws independently, so receiver
  // delivery counts track the loss rate and the books balance.
  std::size_t delivered = 0;
  std::uint64_t dst_drops = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const double rate = static_cast<double>(recs[i]->received.size()) / n;
    EXPECT_NEAR(rate, 0.7, 0.08);
    delivered += recs[i]->received.size();
    dst_drops += f.net.nic_stats(f.net.nic_of(dsts[i])).dropped_messages;
  }
  EXPECT_EQ(delivered + f.net.total_dropped(),
            static_cast<std::size_t>(n) * recs.size());
  EXPECT_EQ(dst_drops, f.net.total_dropped());
  // Independence: some multicast must have reached a strict subset of the
  // receivers (all-or-nothing drops would never produce one).
  bool partial = false;
  for (int tag = 0; tag < n && !partial; ++tag) {
    std::size_t got = 0;
    for (auto* r : recs) {
      for (const auto& rx : r->received) {
        if (rx.tag == tag) {
          ++got;
          break;
        }
      }
    }
    partial = got > 0 && got < recs.size();
  }
  EXPECT_TRUE(partial);
}

TEST(LossProcess, BernoulliZeroRateIsLossless) {
  LossProcess lp = LossProcess::bernoulli(0.0);
  EXPECT_TRUE(lp.lossless());
  GilbertElliottConfig off;
  EXPECT_TRUE(LossProcess::gilbert_elliott(off).lossless());
}

TEST(LossProcess, GilbertElliottBurstsMatchChainParameters) {
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 0.01;
  ge.p_bad_to_good = 0.25;  // mean burst length 4
  LossProcess lp = LossProcess::gilbert_elliott(ge);
  sim::Rng rng(123);
  const int n = 200000;
  int drops = 0, bursts = 0, run = 0;
  for (int i = 0; i < n; ++i) {
    if (lp.drop(rng)) {
      ++drops;
      ++run;
    } else if (run > 0) {
      ++bursts;
      run = 0;
    }
  }
  if (run > 0) ++bursts;
  const double rate = static_cast<double>(drops) / n;
  EXPECT_NEAR(rate, ge.steady_state_loss(), 0.006);
  const double mean_burst = static_cast<double>(drops) / bursts;
  EXPECT_NEAR(mean_burst, 1.0 / ge.p_bad_to_good, 0.5);
  // i.i.d. loss at the same rate would make one-drop bursts dominate; the
  // chain's mean burst must sit far above 1.
  EXPECT_GT(mean_burst, 2.0);
}

TEST(Network, GilbertElliottFabricLossAccountsEveryMessage) {
  Fixture f(0, 9);
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 0.02;
  ge.p_bad_to_good = 0.2;
  f.net.set_loss_model(LossProcess::gilbert_elliott(ge));
  auto [a, ra] = f.make_node(100e9);
  auto [b, rb] = f.make_node(100e9);
  (void)ra;
  const int n = 20000;
  for (int i = 0; i < n; ++i) f.net.send(a, b, make_message<Blob>(10));
  f.sim.run();
  EXPECT_EQ(rb->received.size() + f.net.total_dropped(),
            static_cast<std::size_t>(n));
  const double rate = static_cast<double>(f.net.total_dropped()) / n;
  EXPECT_NEAR(rate, ge.steady_state_loss(), 0.01);
}

// --- TwoTierFabric ---

struct FabricFixture {
  sim::Simulator sim;
  Network net;
  explicit FabricFixture(TwoTierFabric::Config cfg, std::uint64_t seed = 1)
      : net(sim, std::make_unique<TwoTierFabric>(std::move(cfg)), seed) {}
  std::pair<EndpointId, Recorder*> make_node(double bw = 10e9) {
    auto* r = new Recorder;  // owned by recorders
    r->sim = &sim;
    recorders.push_back(std::unique_ptr<Recorder>(r));
    NicId nic = net.add_nic({bw, bw});
    return {net.attach(r, nic), r};
  }
  std::vector<std::unique_ptr<Recorder>> recorders;
};

TEST(TwoTierFabric, IntraRackMatchesIdealSwitchAtHalfLatency) {
  TwoTierFabric::Config cfg;
  cfg.n_racks = 2;
  cfg.hop_latency = sim::microseconds(5);
  cfg.rack_of_nic = {0, 0};
  FabricFixture f(cfg);
  auto [a, ra] = f.make_node(10e9);
  auto [b, rb] = f.make_node(10e9);
  (void)ra;
  // Same-rack path: 1 us TX + 2 x 5 us hops + 1 us RX = the ideal switch's
  // 12 us with one_way_latency = 10 us (hop = L/2 calibration).
  f.net.send(a, b, make_message<Blob>(1250));
  f.sim.run();
  ASSERT_EQ(rb->received.size(), 1u);
  EXPECT_EQ(rb->received[0].at, sim::microseconds(12));
}

TEST(TwoTierFabric, InterRackPaysStoreAndForwardPerHop) {
  TwoTierFabric::Config cfg;
  cfg.n_racks = 2;
  cfg.hop_latency = sim::microseconds(5);
  cfg.rack_of_nic = {0, 1};
  FabricFixture f(cfg);
  auto [a, ra] = f.make_node(10e9);
  auto [b, rb] = f.make_node(10e9);
  (void)ra;
  // 1 us TX, 5 us to ToR; uplink (10 Gbps at 1:1) serializes 1 us then
  // 5 us to the spine; downlink serializes 1 us then 10 us to the NIC;
  // 1 us RX: delivered at 24 us.
  f.net.send(a, b, make_message<Blob>(1250));
  f.sim.run();
  ASSERT_EQ(rb->received.size(), 1u);
  EXPECT_EQ(rb->received[0].at, sim::microseconds(24));
  // Both spine links carried the message; per-link books agree.
  const auto& topo = dynamic_cast<const TwoTierFabric&>(f.net.topology());
  EXPECT_EQ(topo.link_stats(topo.uplink(0)).tx_messages, 1u);
  EXPECT_EQ(topo.link_stats(topo.uplink(0)).tx_bytes, 1250u);
  EXPECT_EQ(topo.link_stats(topo.downlink(1)).tx_messages, 1u);
  EXPECT_EQ(topo.link_stats(topo.downlink(0)).tx_messages, 0u);
}

TEST(TwoTierFabric, DerivedUplinkCapacityHonorsOversubscription) {
  TwoTierFabric::Config cfg;
  cfg.n_racks = 2;
  cfg.hop_latency = 0;
  cfg.oversubscription = 2.0;
  cfg.rack_of_nic = {0, 0, 1};
  FabricFixture f(cfg);
  auto [a0, r0] = f.make_node(10e9);
  auto [a1, r1] = f.make_node(10e9);
  auto [b, rb] = f.make_node(10e9);
  (void)r0;
  (void)r1;
  (void)rb;
  f.net.send(a0, b, make_message<Blob>(100));  // freezes the fabric
  f.sim.run();
  const auto& topo = dynamic_cast<const TwoTierFabric&>(f.net.topology());
  // Rack 0 edge = 20 Gbps over ratio 2 -> 10 Gbps uplink; rack 1's single
  // NIC gives a 5 Gbps uplink.
  EXPECT_DOUBLE_EQ(topo.link(topo.uplink(0)).cfg.bandwidth_bps, 10e9);
  EXPECT_DOUBLE_EQ(topo.link(topo.uplink(1)).cfg.bandwidth_bps, 5e9);
}

TEST(TwoTierFabric, SharedSpineLinksSerializeCrossRackTraffic) {
  TwoTierFabric::Config cfg;
  cfg.n_racks = 2;
  cfg.hop_latency = 0;
  cfg.uplink_bandwidth_bps = 10e9;  // oversubscribed: rack edge is 20 Gbps
  cfg.rack_of_nic = {0, 0, 1, 1};
  FabricFixture f(cfg);
  auto [a0, r0] = f.make_node(10e9);
  auto [a1, r1] = f.make_node(10e9);
  auto [b0, rb0] = f.make_node(10e9);
  auto [b1, rb1] = f.make_node(10e9);
  (void)r0;
  (void)r1;
  // Both rack-0 NICs finish TX at 10 us in parallel, then queue FIFO on
  // the shared 10 Gbps uplink (10->20, 20->30) and again on rack 1's
  // shared downlink (20->30, 30->40); separate RX NICs add 10 us each.
  f.net.send(a0, b0, make_message<Blob>(12500));
  f.net.send(a1, b1, make_message<Blob>(12500));
  f.sim.run();
  ASSERT_EQ(rb0->received.size(), 1u);
  ASSERT_EQ(rb1->received.size(), 1u);
  EXPECT_EQ(rb0->received[0].at, sim::microseconds(40));
  EXPECT_EQ(rb1->received[0].at, sim::microseconds(50));
}

TEST(TwoTierFabric, SpineLossDropsOnlyCrossRackTraffic) {
  TwoTierFabric::Config cfg;
  cfg.n_racks = 2;
  cfg.hop_latency = 0;
  cfg.rack_of_nic = {0, 0, 1};
  cfg.spine_loss = LossProcess::bernoulli(1.0);
  FabricFixture f(cfg);
  auto [a, ra] = f.make_node();
  auto [b, rb] = f.make_node();
  auto [c, rc] = f.make_node();
  (void)ra;
  f.net.send(a, b, make_message<Blob>(100));  // intra-rack: ToR only
  f.net.send(a, c, make_message<Blob>(100));  // crosses the lossy spine
  f.sim.run();
  EXPECT_EQ(rb->received.size(), 1u);
  EXPECT_EQ(rc->received.size(), 0u);
  EXPECT_EQ(f.net.total_dropped(), 1u);
  const auto& topo = dynamic_cast<const TwoTierFabric&>(f.net.topology());
  EXPECT_EQ(topo.link_stats(topo.uplink(0)).dropped_messages, 1u);
  EXPECT_EQ(topo.link_stats(topo.downlink(1)).tx_messages, 0u);
}

TEST(TwoTierFabric, RejectsInvalidConfig) {
  TwoTierFabric::Config zero_racks;
  zero_racks.n_racks = 0;
  EXPECT_THROW(TwoTierFabric{zero_racks}, std::invalid_argument);
  TwoTierFabric::Config under;
  under.oversubscription = 0.5;
  EXPECT_THROW(TwoTierFabric{under}, std::invalid_argument);
  TwoTierFabric::Config nan_ratio;
  nan_ratio.oversubscription = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(TwoTierFabric{nan_ratio}, std::invalid_argument);
  for (double bw : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    TwoTierFabric::Config bad_uplink;
    bad_uplink.uplink_bandwidth_bps = bw;
    EXPECT_THROW(TwoTierFabric{bad_uplink}, std::invalid_argument) << bw;
  }
  TwoTierFabric::Config bad_rack;
  bad_rack.n_racks = 2;
  bad_rack.rack_of_nic = {0, 3};
  EXPECT_THROW(TwoTierFabric{bad_rack}, std::invalid_argument);
}

TEST(TcpModel, NoLossGivesLineRate) {
  EXPECT_DOUBLE_EQ(tcp_goodput_bps(10e9, 100e-6, 0.0), 10e9);
}

TEST(TcpModel, CappedAtLineRate) {
  // Vanishing loss pushes the Mathis bound far above the wire; goodput
  // must clamp to the line rate.
  EXPECT_DOUBLE_EQ(tcp_goodput_bps(1e9, 100e-6, 1e-9), 1e9);
}

TEST(TcpModel, ScalesWithMssAndInverseRtt) {
  // Uncapped regime: goodput ~ MSS / RTT.
  const double base = tcp_goodput_bps(1e15, 100e-6, 0.001);
  EXPECT_NEAR(tcp_goodput_bps(1e15, 100e-6, 0.001, 2920) / base, 2.0, 1e-9);
  EXPECT_NEAR(tcp_goodput_bps(1e15, 200e-6, 0.001) / base, 0.5, 1e-9);
}

TEST(TcpModel, GoodputCollapsesWithLoss) {
  // Use a 100 Gbps cap so neither point is line-rate-limited.
  const double g001 = tcp_goodput_bps(100e9, 100e-6, 0.0001);
  const double g1 = tcp_goodput_bps(100e9, 100e-6, 0.01);
  EXPECT_GT(g001, g1);
  EXPECT_LT(g1, 100e9);
  // Mathis: 100x more loss => sqrt(100) = 10x slower.
  EXPECT_NEAR(g001 / g1, 10.0, 0.5);
}

}  // namespace
}  // namespace omr::net
