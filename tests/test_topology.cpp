// Engine-level tests for the pluggable fabric: two-tier completion
// semantics against the ideal switch, spine/burst loss recovery
// (Algorithm 2 over a lossy fabric), rack-aware hierarchical reduction,
// placement helpers and per-link reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

#include "core/engine.h"
#include "core/fabric.h"
#include "core/run_context.h"
#include "core/tenancy.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

std::vector<tensor::DenseTensor> make_inputs(std::size_t workers,
                                             std::size_t n, double sparsity,
                                             std::uint64_t seed) {
  sim::Rng rng(seed);
  return tensor::make_multi_worker(workers, n, 256, sparsity,
                                   tensor::OverlapMode::kRandom, rng);
}

ClusterSpec base_cluster() {
  ClusterSpec cluster = ClusterSpec::colocated();
  cluster.fabric.worker_bandwidth_bps = 10e9;
  cluster.fabric.aggregator_bandwidth_bps = 10e9;
  cluster.fabric.seed = 11;
  return cluster;
}

TEST(Topology, TwoTierFullBisectionTracksIdealSwitch) {
  const Config cfg = Config::for_transport(Transport::kRdma);

  auto ideal_ts = make_inputs(8, 1 << 16, 0.5, 3);
  ClusterSpec ideal = base_cluster();
  const RunStats ideal_stats = run_allreduce(ideal_ts, cfg, ideal);

  auto tt_ts = make_inputs(8, 1 << 16, 0.5, 3);
  ClusterSpec two_tier = base_cluster();
  two_tier.topology = TopologySpec::two_tier_racks(2, 1.0);
  const RunStats tt_stats = run_allreduce(tt_ts, cfg, two_tier);

  EXPECT_TRUE(ideal_stats.verified);
  EXPECT_TRUE(tt_stats.verified);
  // hop = one_way_latency / 2, so intra-rack crossings cost exactly the
  // ideal latency; cross-rack messages add two extra hops plus two
  // store-and-forward serializations. Completion may only move within
  // that per-hop accounting, never below the ideal fabric.
  EXPECT_GE(tt_stats.completion_time, ideal_stats.completion_time);
  EXPECT_LE(sim::to_milliseconds(tt_stats.completion_time),
            sim::to_milliseconds(ideal_stats.completion_time) * 1.35);
}

TEST(Topology, OversubscriptionSlowsCompletion) {
  const Config cfg = Config::for_transport(Transport::kRdma);

  auto even_ts = make_inputs(8, 1 << 16, 0.0, 5);
  ClusterSpec even = base_cluster();
  even.topology = TopologySpec::two_tier_racks(2, 1.0);
  const RunStats even_stats = run_allreduce(even_ts, cfg, even);

  auto over_ts = make_inputs(8, 1 << 16, 0.0, 5);
  ClusterSpec over = base_cluster();
  over.topology = TopologySpec::two_tier_racks(2, 8.0);
  const RunStats over_stats = run_allreduce(over_ts, cfg, over);

  EXPECT_TRUE(over_stats.verified);
  // 8:1 squeezes every cross-rack byte through 1/8 of the rack edge; the
  // dense run must be markedly spine-bound, not marginally slower.
  EXPECT_GT(over_stats.completion_time, even_stats.completion_time * 2);
}

TEST(Topology, FabricBurstLossRecoversExactly) {
  Config cfg = Config::for_transport(Transport::kDpdk);
  cfg.retransmit_timeout = sim::microseconds(200);
  ClusterSpec cluster = ClusterSpec::dedicated(2);
  cluster.fabric.seed = 21;
  cluster.fabric.burst_loss.p_good_to_bad = 0.02;
  cluster.fabric.burst_loss.p_bad_to_good = 0.3;
  ASSERT_TRUE(cluster.fabric.lossy());

  auto ts = make_inputs(4, 1 << 14, 0.5, 7);
  telemetry::RunReport report =
      run_allreduce_report(ts, cfg, cluster, /*verify=*/true, "burst");
  // Algorithm 2 must mask the bursts: exact result, and the report shows
  // the recovery work (drops happened, retransmissions fixed them).
  EXPECT_TRUE(report.verified);
  EXPECT_GT(report.dropped_messages, 0u);
  EXPECT_GT(report.retransmissions, 0u);
}

TEST(Topology, SpineBurstLossRecoversAndShowsInLinkReports) {
  Config cfg = Config::for_transport(Transport::kDpdk);
  cfg.retransmit_timeout = sim::microseconds(200);
  ClusterSpec cluster = base_cluster();
  cluster.fabric.seed = 23;
  cluster.topology = TopologySpec::two_tier_racks(2, 1.0);
  cluster.topology.spine_burst_loss.p_good_to_bad = 0.05;
  cluster.topology.spine_burst_loss.p_bad_to_good = 0.3;
  ASSERT_TRUE(cluster.topology.spine_lossy());

  auto ts = make_inputs(4, 1 << 14, 0.5, 9);
  const RunStats stats = run_allreduce(ts, cfg, cluster);
  EXPECT_TRUE(stats.verified);
  EXPECT_GT(stats.retransmissions, 0u);
  // 2 racks -> 4 spine links, each reported by name with its own books.
  ASSERT_EQ(stats.links.size(), 4u);
  std::uint64_t link_drops = 0, link_tx = 0;
  for (const auto& l : stats.links) {
    EXPECT_FALSE(l.name.empty());
    link_drops += l.dropped_messages;
    link_tx += l.tx_messages;
  }
  EXPECT_GT(link_drops, 0u);
  EXPECT_GT(link_tx, 0u);
  EXPECT_EQ(link_drops, stats.dropped_messages);
}

TEST(Topology, ImpossibleLossSpecsAreRejectedAtContextBuild) {
  // Each spec would run lossless by accident (NaN, negative) or retransmit
  // forever (a rate of 1, a chain that can drop every message for good);
  // building the context must refuse it before any event runs.
  const Config cfg = Config::for_transport(Transport::kDpdk);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto expect_rejected = [&](const ClusterSpec& cluster, const char* what) {
    EXPECT_THROW(RunContext(cfg, 4, cluster, false), std::invalid_argument)
        << what;
  };
  auto expect_accepted = [&](const ClusterSpec& cluster, const char* what) {
    EXPECT_NO_THROW(RunContext(cfg, 4, cluster, false)) << what;
  };
  for (double rate : {nan, -0.1, 1.0, 1.5}) {
    ClusterSpec fabric_loss = base_cluster();
    fabric_loss.fabric.loss_rate = rate;
    expect_rejected(fabric_loss, "fabric loss_rate");
    ClusterSpec spine_loss = base_cluster();
    spine_loss.topology = TopologySpec::two_tier_racks(2, 1.0);
    spine_loss.topology.spine_loss_rate = rate;
    expect_rejected(spine_loss, "spine_loss_rate");
  }

  auto burst = [&](auto edit) {
    ClusterSpec cluster = base_cluster();
    cluster.fabric.burst_loss.p_good_to_bad = 0.02;
    cluster.fabric.burst_loss.p_bad_to_good = 0.3;
    edit(cluster.fabric.burst_loss);
    return cluster;
  };
  using GE = net::GilbertElliottConfig;
  expect_rejected(burst([&](GE& g) { g.p_good_to_bad = nan; }),
                  "NaN p_good_to_bad");
  expect_rejected(burst([&](GE& g) { g.p_good_to_bad = 1.5; }),
                  "p_good_to_bad > 1");
  expect_rejected(burst([&](GE& g) { g.p_bad_to_good = nan; }),
                  "NaN p_bad_to_good");
  expect_rejected(burst([&](GE& g) { g.p_bad_to_good = -0.2; }),
                  "negative p_bad_to_good");
  expect_rejected(burst([&](GE& g) { g.loss_bad = 1.2; }), "loss_bad > 1");
  expect_rejected(burst([&](GE& g) { g.loss_good = 1.0; }),
                  "loss_good == 1 drops every message");
  expect_rejected(burst([&](GE& g) { g.p_bad_to_good = 0.0; }),
                  "absorbing Bad state with loss_bad == 1");
  ClusterSpec spine_burst = base_cluster();
  spine_burst.topology = TopologySpec::two_tier_racks(2, 1.0);
  spine_burst.topology.spine_burst_loss.p_good_to_bad = 0.05;
  spine_burst.topology.spine_burst_loss.loss_good = 1.0;
  expect_rejected(spine_burst, "spine loss_good == 1");

  // The boundaries that still end stay legal.
  expect_accepted(burst([](GE&) {}), "default bursts (loss_bad == 1)");
  expect_accepted(burst([](GE& g) {
                    g.p_bad_to_good = 0.0;
                    g.loss_bad = 0.5;
                  }),
                  "absorbing Bad state that still delivers");
  expect_accepted(burst([](GE& g) { g.p_good_to_bad = 1.0; }),
                  "p_good_to_bad == 1");
  ClusterSpec edge = base_cluster();
  edge.fabric.loss_rate = 0.999;
  expect_accepted(edge, "loss_rate just under 1");

  // Fabric shapes that would divide by zero placing the aggregators, or
  // stall the protocol, are refused the same way, on one run and on a
  // multi-tenant Fabric alike.
  ClusterSpec no_racks = ClusterSpec::dedicated(1);
  no_racks.topology = TopologySpec::two_tier_racks(0);
  expect_rejected(no_racks, "zero racks under a dedicated aggregator");
  ClusterSpec nan_spine = base_cluster();
  nan_spine.topology = TopologySpec::two_tier_racks(2, nan);
  expect_rejected(nan_spine, "NaN oversubscription");
  ClusterSpec negative = base_cluster();
  negative.fabric.one_way_latency = -sim::milliseconds(1);
  expect_rejected(negative, "negative one_way_latency");
  TenantFabricSpec tenant_nan;
  tenant_nan.topology = TopologySpec::two_tier_racks(2, nan);
  EXPECT_THROW(Fabric{tenant_nan}, std::invalid_argument);
  TenantFabricSpec tenant_negative;
  tenant_negative.one_way_latency = -sim::milliseconds(1);
  EXPECT_THROW(Fabric{tenant_negative}, std::invalid_argument);

  // A NaN rate or delay would be read as 0 ("derived", "off") or reach an
  // integer cast; NaN and negative values are refused, and 0 keeps its
  // meaning.
  for (double bad : {nan, -1.0}) {
    ClusterSpec uplink = base_cluster();
    uplink.topology = TopologySpec::two_tier_racks(2, 1.0);
    uplink.topology.uplink_bandwidth_bps = bad;
    expect_rejected(uplink, "NaN or negative uplink_bandwidth_bps");
    TenantFabricSpec tenant_uplink;
    tenant_uplink.topology = uplink.topology;
    EXPECT_THROW(Fabric{tenant_uplink}, std::invalid_argument);
    ClusterSpec rx = ClusterSpec::dedicated(1);
    rx.fabric.aggregator_rx_overhead_ns = bad;
    expect_rejected(rx, "NaN or negative aggregator_rx_overhead_ns");
    ClusterSpec stragglers = base_cluster();
    stragglers.faults.stragglers.mean_delay_ns = bad;
    expect_rejected(stragglers, "NaN or negative straggler mean delay");
  }
  ClusterSpec zeros = ClusterSpec::dedicated(1);
  zeros.topology = TopologySpec::two_tier_racks(2, 1.0);
  expect_accepted(zeros, "derived uplink, line-rate receive, no stragglers");
}

TEST(Topology, LinkReportsSerializeOnlyForCustomFabrics) {
  const Config cfg = Config::for_transport(Transport::kRdma);

  auto flat_ts = make_inputs(4, 1 << 12, 0.5, 13);
  telemetry::RunReport flat = run_allreduce_report(
      flat_ts, cfg, base_cluster(), /*verify=*/false, "flat");
  EXPECT_TRUE(flat.links.empty());
  std::ostringstream flat_json;
  flat.write_json(flat_json);
  EXPECT_EQ(flat_json.str().find("\"links\""), std::string::npos);

  auto tt_ts = make_inputs(4, 1 << 12, 0.5, 13);
  ClusterSpec two_tier = base_cluster();
  two_tier.topology = TopologySpec::two_tier_racks(2, 1.0);
  telemetry::RunReport tt =
      run_allreduce_report(tt_ts, cfg, two_tier, /*verify=*/false, "tt");
  ASSERT_FALSE(tt.links.empty());
  std::ostringstream tt_json;
  tt.write_json(tt_json);
  EXPECT_NE(tt_json.str().find("\"links\""), std::string::npos);
  EXPECT_NE(tt_json.str().find("rack0.uplink"), std::string::npos);
}

TEST(Topology, PlacementHelpersResolveRacks) {
  TopologySpec topo = TopologySpec::two_tier_racks(2);
  // Contiguous fill: first half of the workers in rack 0.
  EXPECT_EQ(worker_rack(topo, 0, 4), 0);
  EXPECT_EQ(worker_rack(topo, 1, 4), 0);
  EXPECT_EQ(worker_rack(topo, 2, 4), 1);
  EXPECT_EQ(worker_rack(topo, 3, 4), 1);
  // Aggregators round-robin by default, or follow explicit pinning.
  EXPECT_EQ(aggregator_rack(topo, 0), 0);
  EXPECT_EQ(aggregator_rack(topo, 1), 1);
  topo.worker_racks = {1, 0, 1, 0};
  topo.aggregator_racks = {1};
  EXPECT_EQ(worker_rack(topo, 0, 4), 1);
  EXPECT_EQ(aggregator_rack(topo, 0), 1);
  const std::vector<int> racks = resolve_nic_racks(topo, 4, 1);
  EXPECT_EQ(racks, (std::vector<int>{1, 0, 1, 0, 1}));
}

}  // namespace
}  // namespace omr::core
