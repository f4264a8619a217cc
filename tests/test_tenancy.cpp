// Multi-tenant fabric: concurrent jobs on one simulated network, with
// weighted-fair link sharing, elastic membership (join/leave between
// steps) and switch-slot admission. Every multi-job run must be
// deterministic — replay-bit-identical run to run — and elastic runs must
// reduce to exactly the reference over each step's active members.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/tenancy.h"
#include "innet/p4_aggregator.h"
#include "innet/slot_pool.h"
#include "net/topology.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace omr::core {
namespace {

Fabric::StepTensors make_steps(std::size_t steps, std::size_t n_workers,
                               std::size_t n, double sparsity,
                               std::uint64_t seed) {
  sim::Rng rng(seed);
  Fabric::StepTensors out(steps);
  for (auto& step : out) {
    step.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      step.push_back(tensor::make_block_sparse(n, 256, sparsity, rng));
    }
  }
  return out;
}

std::string report_json(const Fabric& fabric) {
  std::ostringstream os;
  fabric.report().write_json(os);
  return os.str();
}

// Two 4-worker jobs sharing an 8-machine, 2-rack, 8:1-oversubscribed
// fabric, each with cross-rack worker->aggregator traffic on the same
// spine links.
std::string run_two_jobs() {
  TenantFabricSpec spec;
  spec.n_machines = 8;
  spec.topology = TopologySpec::two_tier_racks(2, 8.0);
  Fabric fabric(spec);

  JobSpec a;
  a.name = "jobA";
  a.config.deterministic_reduction = true;
  a.worker_machines = {0, 1, 4, 5};
  a.aggregator_machines = {3};
  auto ta = make_steps(2, 4, 16384, 0.5, 11);

  JobSpec b;
  b.name = "jobB";
  b.config.deterministic_reduction = true;
  b.worker_machines = {2, 3, 6, 7};
  b.aggregator_machines = {6};
  b.weight = 2.0;
  auto tb = make_steps(2, 4, 16384, 0.5, 22);

  fabric.add_job(a, ta);
  fabric.add_job(b, tb);
  fabric.run();
  return report_json(fabric);
}

TEST(Tenancy, TwoJobReplayIsByteIdentical) {
  const std::string first = run_two_jobs();
  const std::string second = run_two_jobs();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Tenancy, TwoJobReportHasPerTenantLinkRows) {
  const std::string json = run_two_jobs();
  EXPECT_NE(json.find("\"schema\":\"omnireduce.fabric_report.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"jobs\":["), std::string::npos);
  EXPECT_NE(json.find("\"link_shares\":["), std::string::npos);
  EXPECT_NE(json.find("jobA"), std::string::npos);
  EXPECT_NE(json.find("jobB"), std::string::npos);
}

// One job scaling 4 -> 8 -> 6 across three steps. Deterministic-reduction
// sum without quantization must match the reference bit-exactly at every
// step (Fabric::run throws otherwise); membership bookkeeping and the
// join-resync handshake are visible in the report.
std::string run_elastic(bool check_report) {
  TenantFabricSpec spec;
  spec.n_machines = 10;
  Fabric fabric(spec);

  JobSpec job;
  job.name = "elastic";
  job.config.deterministic_reduction = true;
  job.worker_machines = {0, 1, 2, 3, 4, 5, 6, 7};
  job.aggregator_machines = {8, 9};
  job.initial_active = {1, 1, 1, 1, 0, 0, 0, 0};
  for (std::size_t w = 4; w < 8; ++w) {
    job.membership.push_back({/*before_step=*/1, w, /*join=*/true});
  }
  job.membership.push_back({/*before_step=*/2, 0, /*join=*/false});
  job.membership.push_back({/*before_step=*/2, 1, /*join=*/false});
  auto tensors = make_steps(3, 8, 16384, 0.4, 33);

  fabric.add_job(job, tensors);
  fabric.run();

  const telemetry::FabricReport report = fabric.report();
  if (check_report) {
    EXPECT_EQ(report.jobs.size(), 1u);
    EXPECT_TRUE(report.jobs[0].verified);
    EXPECT_EQ(report.jobs[0].step_active.size(), 3u);
    if (report.jobs[0].step_active.size() == 3) {
      EXPECT_EQ(report.jobs[0].step_active[0], 4u);
      EXPECT_EQ(report.jobs[0].step_active[1], 8u);
      EXPECT_EQ(report.jobs[0].step_active[2], 6u);
    }
    EXPECT_EQ(report.jobs[0].step_completion.size(), 3u);
    if (report.jobs[0].step_completion.size() == 3) {
      EXPECT_GT(report.jobs[0].step_completion[0], 0);
      EXPECT_LT(report.jobs[0].step_completion[0],
                report.jobs[0].step_completion[1]);
      EXPECT_LT(report.jobs[0].step_completion[1],
                report.jobs[0].step_completion[2]);
    }
    // 16384 elements / 256-element blocks = 64 streams; each of the 4
    // joiners resyncs every stream of the previous step.
    EXPECT_EQ(report.jobs[0].resyncs, 4u * 64u);
    // Algorithm 1 on a reliable fabric leaves no cross-step stragglers.
    EXPECT_EQ(report.jobs[0].stale_drops, 0u);
  }
  return report_json(fabric);
}

TEST(Tenancy, ElasticMembershipScalesAndVerifiesExactly) {
  run_elastic(/*check_report=*/true);
}

TEST(Tenancy, ElasticReplayIsByteIdentical) {
  const std::string first = run_elastic(/*check_report=*/false);
  EXPECT_EQ(first, run_elastic(/*check_report=*/false));
}

TEST(Tenancy, ElasticActiveSetResultsMatchReference) {
  TenantFabricSpec spec;
  spec.n_machines = 6;
  Fabric fabric(spec);

  JobSpec job;
  job.name = "elastic-check";
  job.config.deterministic_reduction = true;
  job.worker_machines = {0, 1, 2, 3};
  job.aggregator_machines = {4};
  job.initial_active = {1, 1, 1, 0};
  job.membership.push_back({/*before_step=*/1, 3, /*join=*/true});
  auto tensors = make_steps(2, 4, 8192, 0.3, 44);

  // Snapshot the inputs before the in-place reduction.
  Fabric::StepTensors inputs = tensors;
  fabric.add_job(job, tensors);
  fabric.run();

  Config ref_cfg;
  ref_cfg.deterministic_reduction = true;
  {
    std::vector<tensor::DenseTensor> step0(inputs[0].begin(),
                                           inputs[0].begin() + 3);
    const tensor::DenseTensor expect = reference_reduce(step0, ref_cfg);
    for (std::size_t w = 0; w < 3; ++w) {
      EXPECT_EQ(tensor::max_abs_diff(tensors[0][w], expect), 0.0);
    }
    // The inactive worker's step-0 tensor is untouched.
    EXPECT_EQ(tensor::max_abs_diff(tensors[0][3], inputs[0][3]), 0.0);
  }
  {
    const tensor::DenseTensor expect = reference_reduce(inputs[1], ref_cfg);
    for (std::size_t w = 0; w < 4; ++w) {
      EXPECT_EQ(tensor::max_abs_diff(tensors[1][w], expect), 0.0);
    }
  }
}

TEST(Tenancy, SlotPoolRejectsOversubscribedJob) {
  TenantFabricSpec spec;
  spec.n_machines = 6;
  spec.switch_slots = 100;  // each job below needs 64
  Fabric fabric(spec);

  JobSpec a;
  a.name = "first";
  a.config.switch_multicast = true;
  a.worker_machines = {0, 1};
  a.aggregator_machines = {4};
  auto ta = make_steps(1, 2, 16384, 0.5, 55);

  JobSpec b = a;
  b.name = "second";
  b.worker_machines = {2, 3};
  b.aggregator_machines = {5};
  auto tb = make_steps(1, 2, 16384, 0.5, 66);

  const int ja = fabric.add_job(a, ta);
  const int jb = fabric.add_job(b, tb);
  // Admission is decided when the job is added, before anything runs.
  const telemetry::FabricReport added = fabric.report();
  EXPECT_TRUE(added.jobs[static_cast<std::size_t>(ja)].admitted);
  EXPECT_FALSE(added.jobs[static_cast<std::size_t>(jb)].admitted);

  fabric.run();  // only the admitted job runs; the rejected one is inert

  const telemetry::FabricReport report = fabric.report();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_TRUE(report.jobs[0].admitted);
  EXPECT_TRUE(report.jobs[0].verified);
  EXPECT_GT(report.jobs[0].finish, 0);
  EXPECT_FALSE(report.jobs[1].admitted);
  EXPECT_NE(report.jobs[1].rejection.find("switch slot pool exhausted"),
            std::string::npos);
  EXPECT_EQ(report.jobs[1].finish, 0);
}

TEST(Tenancy, SlotPoolReserveRelease) {
  innet::SlotPool pool(100);
  EXPECT_FALSE(pool.unlimited());
  EXPECT_TRUE(pool.reserve(0, 60));
  EXPECT_EQ(pool.available(), 40u);
  EXPECT_FALSE(pool.reserve(1, 41));
  EXPECT_TRUE(pool.reserve(1, 40));
  // Re-reserving replaces a job's prior claim instead of stacking it.
  EXPECT_TRUE(pool.reserve(0, 10));
  EXPECT_EQ(pool.used(), 50u);
  pool.release(1);
  EXPECT_EQ(pool.used(), 10u);
  EXPECT_EQ(pool.reserved(0), 10u);
  innet::SlotPool unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_TRUE(unlimited.reserve(0, 1u << 20));
}

TEST(Tenancy, P4RunRejectsWhenSlotsExhausted) {
  sim::Rng rng(77);
  std::vector<tensor::DenseTensor> tensors;
  for (int w = 0; w < 2; ++w) {
    tensors.push_back(tensor::make_block_sparse(16384, 256, 0.5, rng));
  }
  innet::P4Config cfg;
  cfg.switch_slots = 32;  // the layout needs 64 streams
  EXPECT_THROW(innet::run_allreduce_innet(tensors, cfg), std::runtime_error);
  cfg.switch_slots = 64;
  const RunStats stats = innet::run_allreduce_innet(tensors, cfg);
  EXPECT_GT(stats.completion_time, 0);
  EXPECT_TRUE(stats.verified);
}

// Weighted-fair sharing on the oversubscribed spine: two symmetric jobs
// with equal weights split the contended links near-evenly (Jain index ~1);
// tripling one job's weight makes it finish first. Per-tenant link
// accounting must tile the link totals exactly.
struct FairnessSetup {
  TenantFabricSpec spec;
  JobSpec a;
  JobSpec b;
};

FairnessSetup make_fairness_setup(double weight_a, double weight_b) {
  FairnessSetup s;
  s.spec.n_machines = 8;
  s.spec.topology = TopologySpec::two_tier_racks(2, 8.0);
  // rack 0: machines 0-3, rack 1: machines 4-7 (contiguous default).
  s.a.name = "heavy";
  s.a.weight = weight_a;
  s.a.config.deterministic_reduction = true;
  s.a.worker_machines = {4, 5};  // rack 1 -> aggregator in rack 0
  s.a.aggregator_machines = {0};
  s.b = s.a;
  s.b.name = "light";
  s.b.weight = weight_b;
  s.b.worker_machines = {6, 7};
  s.b.aggregator_machines = {1};
  return s;
}

TEST(Tenancy, EqualWeightsShareContendedLinksFairly) {
  FairnessSetup s = make_fairness_setup(1.0, 1.0);
  Fabric fabric(s.spec);
  auto ta = make_steps(1, 2, 65536, 0.0, 88);
  auto tb = make_steps(1, 2, 65536, 0.0, 99);
  fabric.add_job(s.a, ta);
  fabric.add_job(s.b, tb);
  fabric.run();
  const telemetry::FabricReport report = fabric.report();
  // Symmetric dense jobs, equal weights: near-perfect fairness.
  EXPECT_GT(report.fairness_index, 0.95);
  EXPECT_LE(report.fairness_index, 1.0);

  // Per-tenant rows tile the per-link totals exactly.
  const net::Network& net =
      const_cast<Fabric&>(static_cast<const Fabric&>(fabric)).network();
  const net::Topology& topo = net.topology();
  bool saw_contended = false;
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const auto id = static_cast<net::LinkId>(l);
    std::uint64_t bytes = 0;
    std::uint64_t messages = 0;
    int tenants_on_link = 0;
    for (int t = 0; t < 2; ++t) {
      const net::LinkStats& st = net.tenant_link_stats(id, t);
      bytes += st.tx_bytes;
      messages += st.tx_messages;
      if (st.tx_bytes > 0) ++tenants_on_link;
    }
    EXPECT_EQ(bytes, topo.link_stats(id).tx_bytes) << topo.link_name(id);
    EXPECT_EQ(messages, topo.link_stats(id).tx_messages)
        << topo.link_name(id);
    if (tenants_on_link == 2) saw_contended = true;
  }
  EXPECT_TRUE(saw_contended);
}

TEST(Tenancy, HigherWeightFinishesFirstUnderContention) {
  FairnessSetup s = make_fairness_setup(3.0, 1.0);
  Fabric fabric(s.spec);
  auto ta = make_steps(1, 2, 65536, 0.0, 88);
  auto tb = make_steps(1, 2, 65536, 0.0, 99);
  fabric.add_job(s.a, ta);
  fabric.add_job(s.b, tb);
  fabric.run();
  const telemetry::FabricReport report = fabric.report();
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_TRUE(report.jobs[0].verified);
  EXPECT_TRUE(report.jobs[1].verified);
  // 3x the fair share on the contended uplink -> strictly earlier finish.
  EXPECT_LT(report.jobs[0].finish, report.jobs[1].finish);

  // Monotonicity: raising a tenant's weight must strictly speed it up.
  // Job B prices its bursts against job A's booked service, so its share
  // of the contended links (and hence its finish time) genuinely depends
  // on the weight ratio.
  const auto finish_b_with = [](double wa, double wb) {
    FairnessSetup s = make_fairness_setup(wa, wb);
    Fabric fabric(s.spec);
    auto ta = make_steps(1, 2, 65536, 0.0, 88);
    auto tb = make_steps(1, 2, 65536, 0.0, 99);
    fabric.add_job(s.a, ta);
    fabric.add_job(s.b, tb);
    fabric.run();
    return fabric.report().jobs[1].finish;
  };
  EXPECT_LT(finish_b_with(1.0, 3.0), finish_b_with(3.0, 1.0));
}

TEST(Tenancy, FairnessReplayIsByteIdentical) {
  auto run = [] {
    FairnessSetup s = make_fairness_setup(2.0, 1.0);
    Fabric fabric(s.spec);
    auto ta = make_steps(1, 2, 32768, 0.0, 101);
    auto tb = make_steps(1, 2, 32768, 0.0, 202);
    fabric.add_job(s.a, ta);
    fabric.add_job(s.b, tb);
    fabric.run();
    return report_json(fabric);
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
}

TEST(Tenancy, MalformedJobSpecsThrow) {
  TenantFabricSpec spec;
  spec.n_machines = 4;
  Fabric fabric(spec);
  auto tensors = make_steps(2, 2, 4096, 0.5, 7);

  JobSpec bad;
  bad.worker_machines = {0, 9};  // machine out of range
  bad.aggregator_machines = {1};
  EXPECT_THROW(fabric.add_job(bad, tensors), std::invalid_argument);

  bad.worker_machines = {0, 1};
  // A weight must be a finite positive share: +inf or NaN would reach the
  // weighted-fair link schedule.
  for (double w : {0.0, std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    bad.weight = w;
    EXPECT_THROW(fabric.add_job(bad, tensors), std::invalid_argument) << w;
  }

  bad.weight = 1.0;
  bad.membership.push_back({/*before_step=*/0, 0, /*join=*/false});
  EXPECT_THROW(fabric.add_job(bad, tensors), std::invalid_argument);

  bad.membership.clear();
  bad.membership.push_back({/*before_step=*/1, 0, /*join=*/true});
  // Worker 0 is already active: a join must name an absent worker.
  EXPECT_THROW(fabric.add_job(bad, tensors), std::invalid_argument);

  bad.membership.clear();
  bad.initial_active = {0, 0};  // no active workers at step 0
  EXPECT_THROW(fabric.add_job(bad, tensors), std::invalid_argument);

  // A config without blocks or streams has no layout to plan.
  bad.initial_active.clear();
  bad.config.block_size = 0;
  EXPECT_THROW(fabric.add_job(bad, tensors), std::invalid_argument);
  bad.config.block_size = 256;
  bad.config.num_streams = 0;
  EXPECT_THROW(fabric.add_job(bad, tensors), std::invalid_argument);
}

TEST(Tenancy, NonBinaryInitialActiveIsRejected) {
  // Every step counts its active workers as the entries equal to 1, while
  // the workers, aggregators and reference treat any non-zero entry as
  // active; a 2 would make the two disagree, so add_job refuses it.
  TenantFabricSpec spec;
  spec.n_machines = 4;
  Fabric fabric(spec);
  auto tensors = make_steps(2, 2, 4096, 0.5, 7);
  JobSpec job;
  job.worker_machines = {0, 1};
  job.aggregator_machines = {2};
  job.initial_active = {2, 1};
  EXPECT_THROW(fabric.add_job(job, tensors), std::invalid_argument);
}

TEST(Tenancy, ImpossibleSpineLossSpecsThrow) {
  // A multi-tenant fabric refuses any lossy spine; a NaN or negative rate
  // is not lossless but malformed, and must be refused too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double rate : {nan, -0.1, 1.0}) {
    TenantFabricSpec spec;
    spec.topology = TopologySpec::two_tier_racks(2, 2.0);
    spec.topology.spine_loss_rate = rate;
    EXPECT_THROW(Fabric{spec}, std::invalid_argument) << rate;
  }
  TenantFabricSpec spec;
  spec.topology.spine_burst_loss.p_good_to_bad = nan;
  EXPECT_THROW(Fabric{spec}, std::invalid_argument);
}

TEST(Tenancy, MachineRacksAreValidatedAndPlaced) {
  TenantFabricSpec spec;
  spec.n_machines = 4;
  spec.topology = TopologySpec::two_tier_racks(2, 2.0);
  auto racks = [](Fabric& fabric) {
    const auto& topo =
        dynamic_cast<const net::TwoTierFabric&>(fabric.network().topology());
    std::vector<int> out;
    for (net::NicId nic = 0; nic < 4; ++nic) out.push_back(topo.rack_of(nic));
    return out;
  };
  {
    Fabric fabric(spec);  // empty machine_racks: contiguous fill
    EXPECT_EQ(racks(fabric), (std::vector<int>{0, 0, 1, 1}));
  }
  spec.machine_racks = {1, 0, 1, 0};
  {
    Fabric fabric(spec);
    EXPECT_EQ(racks(fabric), spec.machine_racks);
  }
  spec.machine_racks = {0, 1, 1};  // one rack short of the machine count
  EXPECT_THROW(Fabric{spec}, std::invalid_argument);
  for (int bad : {2, -1}) {
    spec.machine_racks = {0, 1, bad, 1};  // rack outside the 2 racks
    EXPECT_THROW(Fabric{spec}, std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace omr::core
