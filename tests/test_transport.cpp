// Transport laws of Algorithm 2 (§5): on a lossless, fault-free fabric the
// worker timers must never fire, so a run retransmits nothing and the
// aggregators resend no duplicate results; under loss, recovery costs a
// bounded number of retransmissions per drop and at most one timeout on
// the tail. The cells are the scale points where a fixed timeout used to
// sit below one aggregation round: 16 and 64 workers, dedicated
// aggregators, on the ideal switch and on a 4-rack two-tier fabric at 2:1
// and 8:1 spine oversubscription. The timeout is sized per collective
// from the predicted slot round (size_retransmit_timeout).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/fabric.h"
#include "core/run_context.h"
#include "core/wiring.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

struct Cell {
  std::size_t workers;
  std::size_t aggregators;  // dedicated aggregator nodes
  double oversubscription;  // 0 = ideal switch

  std::string name() const {
    return std::to_string(workers) + " workers, " +
           (oversubscription == 0.0
                ? std::string("ideal")
                : std::to_string(static_cast<int>(oversubscription)) + ":1");
  }
};

ClusterSpec cell_cluster(const Cell& c, double loss = 0.0) {
  ClusterSpec cluster = ClusterSpec::dedicated(c.aggregators);
  if (c.oversubscription > 0.0) {
    cluster.topology = TopologySpec::two_tier_racks(4, c.oversubscription);
  }
  cluster.fabric.loss_rate = loss;
  return cluster;
}

constexpr std::size_t kElements = 262144;

Config dpdk() {
  Config cfg = Config::for_transport(Transport::kDpdk);
  cfg.loss_recovery = true;  // Algorithm 2 even where the fabric is lossless
  return cfg;
}

// 256K elements per worker at 90% block sparsity.
RunStats run_cell(const Cell& c, const ClusterSpec& cluster) {
  sim::Rng rng(1);
  auto ts = tensor::make_multi_worker(c.workers, kElements, 256, 0.9,
                                      tensor::OverlapMode::kRandom, rng);
  return run_allreduce(ts, dpdk(), cluster);
}

// The timeout a cell's collective arms, sized on a bare substrate with the
// cell's NICs (no simulation). aggregators == 0 places one aggregator
// shard on every worker NIC (colocated).
RetransmitTimeout cell_timeout(const Cell& c, const Config& cfg) {
  const TopologySpec topo = cell_cluster(c).topology;
  sim::Simulator simulator;
  net::Network net(simulator,
                   make_topology(topo, sim::microseconds(10),
                                 topo.two_tier() ? resolve_nic_racks(
                                                       topo, c.workers,
                                                       c.aggregators)
                                                 : std::vector<int>{}),
                   1);
  std::vector<net::NicId> workers, aggs;
  for (std::size_t w = 0; w < c.workers; ++w) {
    workers.push_back(net.add_nic({}));
  }
  for (std::size_t a = 0; a < c.aggregators; ++a) {
    aggs.push_back(net.add_nic({}));
  }
  if (c.aggregators == 0) aggs = workers;
  // Stream ownership comes from the collective's plan; its endpoint ids
  // are placeholders (the timeout reads only the per-aggregator counts).
  const CollectivePlan plan =
      plan_collective(cfg, kElements, net, workers, aggs,
                      std::vector<net::EndpointId>(aggs.size()));
  return size_retransmit_timeout(cfg, plan.layout, plan.streams_on_agg, net,
                                 workers, aggs);
}

const Cell kLosslessCells[] = {{16, 4, 0.0}, {16, 4, 2.0}, {16, 4, 8.0},
                               {64, 8, 0.0}, {64, 8, 2.0}, {64, 8, 8.0}};

TEST(Transport, LosslessAlgorithm2NeverRetransmits) {
  for (const Cell& c : kLosslessCells) {
    SCOPED_TRACE(c.name());
    const RunStats st = run_cell(c, cell_cluster(c));
    ASSERT_TRUE(st.verified);
    EXPECT_EQ(st.dropped_messages, 0u);
    EXPECT_EQ(st.retransmissions, 0u);
    EXPECT_EQ(st.duplicate_resends, 0u);
  }
}

// A drop stalls its slot until the timers fire: every worker of the slot
// may resend once and the aggregator answer each (about 2N messages), and
// the stalled slot finishes at most one timeout late.
void expect_loss_bound(const Cell& c) {
  const RunStats lossless = run_cell(c, cell_cluster(c));
  const RunStats lossy = run_cell(c, cell_cluster(c, 1e-4));
  ASSERT_TRUE(lossy.verified);
  ASSERT_GT(lossy.dropped_messages, 0u);
  EXPECT_EQ(lossy.rto_ns, lossless.rto_ns);
  EXPECT_LE(lossy.retransmissions, 2 * c.workers * lossy.dropped_messages);
  EXPECT_LE(lossy.completion_time, lossless.completion_time + lossy.rto_ns);
}

TEST(Transport, LossOn2to1CostsAtMostOneTimeout) {
  expect_loss_bound({64, 8, 2.0});
}

TEST(Transport, LossOn8to1CostsAtMostOneTimeout) {
  expect_loss_bound({64, 8, 8.0});
}

TEST(Transport, TimeoutIsOneAndAHalfPredictedRounds) {
  const RetransmitTimeout t = cell_timeout({64, 8, 2.0}, dpdk());
  // 1.80 ms of result fan-out at the aggregator NIC, 0.15 ms of it across
  // the 2:1 spine and a 4-hop round trip: the simulator's steady-state
  // round there takes 1.75-2.0 ms.
  EXPECT_GE(t.round_model, sim::microseconds(1800));
  EXPECT_LE(t.round_model, sim::microseconds(2000));
  EXPECT_NEAR(static_cast<double>(t.rto),
              1.5 * static_cast<double>(t.round_model), 1.0);

  const RetransmitTimeout eight = cell_timeout({64, 8, 8.0}, dpdk());
  const RetransmitTimeout ideal = cell_timeout({64, 8, 0.0}, dpdk());
  EXPECT_GT(eight.round_model, t.round_model);
  EXPECT_GT(eight.round_model, ideal.round_model + sim::microseconds(500));
}

TEST(Transport, SmallRoundsKeepTheFloor) {
  // Colocated: 4 streams per node, ~0.24 ms rounds at 64 workers.
  const RetransmitTimeout colocated = cell_timeout({64, 0, 0.0}, dpdk());
  EXPECT_LT(colocated.round_model, sim::microseconds(300));
  EXPECT_EQ(colocated.rto, dpdk().retransmit_timeout);
  // Switch multicast: one result per slot leaves the node.
  Config multicast = dpdk();
  multicast.switch_multicast = true;
  const RetransmitTimeout mc = cell_timeout({64, 8, 0.0}, multicast);
  EXPECT_LT(mc.round_model * 5, cell_timeout({64, 8, 0.0}, dpdk()).round_model);
  // 8 workers on 8 aggregators (Fig. 21's shape): under a 500 us floor.
  Config fig21 = dpdk();
  fig21.retransmit_timeout = sim::microseconds(500);
  EXPECT_EQ(cell_timeout({8, 8, 0.0}, fig21).rto, sim::microseconds(500));
}

TEST(Transport, ReliableRunsComputeNoTimeout) {
  const Config rdma = Config::for_transport(Transport::kRdma);
  const RetransmitTimeout t = cell_timeout({64, 8, 2.0}, rdma);
  EXPECT_EQ(t.rto, 0);
  EXPECT_EQ(t.round_model, 0);

  sim::Rng rng(3);
  auto ts = tensor::make_multi_worker(4, 16384, 256, 0.9,
                                      tensor::OverlapMode::kRandom, rng);
  const RunStats st = run_allreduce(ts, rdma, ClusterSpec::dedicated(2));
  EXPECT_EQ(st.rto_ns, 0);
  EXPECT_EQ(st.round_model_ns, 0);
}

TEST(Transport, FaultBackoffStartsFromTheDerivedTimeout) {
  // An active fault layer (stragglers) owns the backoff schedule; its base
  // is the worker's derived timeout, so a lossless 64-worker run still
  // never retransmits.
  const Cell c{64, 8, 2.0};
  ClusterSpec cluster = cell_cluster(c);
  cluster.faults.stragglers.mean_delay_ns = 100.0;
  const RunStats st = run_cell(c, cluster);
  ASSERT_TRUE(st.completed());
  EXPECT_GT(st.rto_ns, sim::milliseconds(2));
  EXPECT_EQ(st.retransmissions, 0u);
  EXPECT_EQ(st.duplicate_resends, 0u);
}

TEST(Transport, ReportCarriesTheTimeout) {
  sim::Rng rng(5);
  auto ts = tensor::make_multi_worker(4, 16384, 256, 0.9,
                                      tensor::OverlapMode::kRandom, rng);
  ClusterSpec cluster = ClusterSpec::dedicated(2);
  cluster.fabric.loss_rate = 0.01;
  const telemetry::RunReport report =
      run_allreduce_report(ts, Config::for_transport(Transport::kDpdk),
                           cluster);
  EXPECT_GT(report.round_model_ns, 0);
  EXPECT_EQ(report.rto_ns, sim::milliseconds(1));  // small rounds: floor
  std::ostringstream json;
  report.write_json(json);
  EXPECT_NE(json.str().find("\"rto_ns\":1000000"), std::string::npos);
  EXPECT_NE(json.str().find("\"round_model_ns\":" +
                            std::to_string(report.round_model_ns)),
            std::string::npos);
}

}  // namespace
}  // namespace omr::core
