#include <gtest/gtest.h>

#include "perfmodel/perfmodel.h"

namespace omr::perfmodel {
namespace {

ModelParams base() {
  ModelParams p;
  p.n_workers = 8;
  p.bandwidth_bps = 10e9;
  p.alpha_s = 10e-6;
  p.tensor_bytes = 100e6;
  p.density = 1.0;
  return p;
}

TEST(PerfModel, RingMatchesClosedForm) {
  ModelParams p = base();
  // 2 * 7 * (1e-5 + 8e8 / 8e10) = 14 * (1e-5 + 0.01) = 0.14014 s
  EXPECT_NEAR(t_ring(p), 0.14014, 1e-5);
}

TEST(PerfModel, OmniReduceDenseIsTensorOverBandwidth) {
  ModelParams p = base();
  EXPECT_NEAR(t_omnireduce(p), 1e-5 + 0.08, 1e-6);
}

TEST(PerfModel, SpeedupVsRingDense) {
  // Dense: SU = 2(N-1)/N = 1.75 at N=8.
  ModelParams p = base();
  EXPECT_NEAR(t_ring(p) / t_omnireduce(p), 1.75, 0.01);
}

TEST(PerfModel, SpeedupGrowsWithSparsity) {
  ModelParams p = base();
  p.density = 0.1;
  // SU = 2(N-1)/(N*D) = 17.5.
  EXPECT_NEAR(t_ring(p) / t_omnireduce(p), 17.5, 0.2);
  p.density = 0.01;
  EXPECT_GT(t_ring(p) / t_omnireduce(p), 100.0);
}

TEST(PerfModel, SpeedupVsAgsparseIndependentOfDensity) {
  // SU = 2(N-1) in the bandwidth regime, for any D.
  for (double d : {1.0, 0.5, 0.05}) {
    ModelParams p = base();
    p.density = d;
    EXPECT_NEAR(t_agsparse(p) / t_omnireduce(p), 14.0, 0.15)
        << "density " << d;
  }
}

TEST(PerfModel, ColocationHalvesBandwidth) {
  ModelParams p = base();
  EXPECT_NEAR(t_omnireduce_colocated(p) - p.alpha_s,
              2.0 * (t_omnireduce(p) - p.alpha_s), 1e-9);
  // Dense colocated OmniReduce ~ ring: SU -> 2(N-1)/(2N) ~ 0.875.
  EXPECT_NEAR(t_ring(p) / t_omnireduce_colocated(p), 0.875, 0.01);
}

TEST(PerfModel, AgsparseScalesPoorly) {
  ModelParams p2 = base();
  p2.n_workers = 2;
  p2.density = 0.05;
  ModelParams p8 = base();
  p8.n_workers = 8;
  p8.density = 0.05;
  // AGsparse time grows ~(N-1); OmniReduce time is constant.
  EXPECT_NEAR(t_agsparse(p8) / t_agsparse(p2), 7.0, 0.05);
  EXPECT_DOUBLE_EQ(t_omnireduce(p8), t_omnireduce(p2));
}

TEST(PerfModel, VerySparseLatencyRegime) {
  ModelParams p = base();
  p.density = 1e-6;  // latency dominates
  EXPECT_LT(t_omnireduce(p), 2.0 * p.alpha_s);
  EXPECT_GT(t_ring(p), 14.0 * p.alpha_s);
}

// Algorithm 2 slot round for the 64-worker, 8-aggregator DPDK cell: 256
// streams round-robin over 8 nodes (32 each), one 256-element block per
// packet (1024 B payload + 64 B header + 8 B next pointer), 4 racks of
// 16 workers and 2 aggregators, so 48 of 64 workers sit across the spine.
SlotRoundParams dpdk64(double oversubscription) {
  SlotRoundParams p;
  p.n_workers = 64;
  p.streams_on_node = 32;
  p.header_bytes = 72.0;
  p.payload_bytes = 1024.0;
  p.nic_bandwidth_bps = 10e9;
  p.alpha_s = 10e-6;
  if (oversubscription > 0.0) {
    p.cross_rack_fraction = 48.0 / 64.0;
    p.uplink_bandwidth_bps = 18 * 10e9 / oversubscription;  // 18 NICs/rack
  }
  return p;
}

TEST(PerfModel, SlotRoundOf64WorkersOn2to1) {
  const SlotRound r = slot_round(dpdk64(2.0));
  // 64 * 32 * 1096 B of result fan-out at 10 Gbps.
  EXPECT_NEAR(r.nic_s, 64 * 32 * 1096 * 8 / 10e9, 1e-12);
  EXPECT_NEAR(r.spine_s, 0.75 * r.nic_s * 10e9 / 90e9, 1e-12);
  EXPECT_DOUBLE_EQ(r.rtt_s, 20e-6);
  EXPECT_NEAR(r.seconds(), 1.8e-3, 0.18e-3);
}

TEST(PerfModel, SlotRoundCarriesTheSpineTerm) {
  const SlotRound ideal = slot_round(dpdk64(0.0));
  const SlotRound two = slot_round(dpdk64(2.0));
  const SlotRound eight = slot_round(dpdk64(8.0));
  EXPECT_EQ(ideal.spine_s, 0.0);
  EXPECT_DOUBLE_EQ(ideal.nic_s, eight.nic_s);
  // 4x less uplink: 4x the spine stage, ~0.6 ms on top of 1.8 ms.
  EXPECT_NEAR(eight.spine_s, 4.0 * two.spine_s, 1e-12);
  EXPECT_NEAR(eight.spine_s, 0.6e-3, 0.01e-3);
  EXPECT_GT(eight.seconds(), ideal.seconds() + 0.5e-3);
}

TEST(PerfModel, SlotRoundFanOutShrinksPerNode) {
  const SlotRound dedicated = slot_round(dpdk64(0.0));
  // Colocated: 64 nodes share the 256 streams, 4 each.
  SlotRoundParams colocated = dpdk64(0.0);
  colocated.streams_on_node = 4;
  EXPECT_NEAR(slot_round(colocated).nic_s, dedicated.nic_s / 8.0, 1e-12);
  // Switch multicast sends one result per slot; a sparse round is then
  // bound by its ingress: 64 next pointers and one block per slot.
  SlotRoundParams multicast = dpdk64(0.0);
  multicast.multicast = true;
  EXPECT_NEAR(slot_round(multicast).nic_s,
              32 * (64 * 72.0 + 1024.0) * 8 / 10e9, 1e-12);
  EXPECT_LT(slot_round(multicast).nic_s, dedicated.nic_s / 5.0);
  // In dense mode every worker packet carries a block: ingress matches the
  // unicast fan-out, so multicast saves nothing.
  multicast.dense = true;
  EXPECT_NEAR(slot_round(multicast).nic_s, dedicated.nic_s, 1e-12);
}

}  // namespace
}  // namespace omr::perfmodel
