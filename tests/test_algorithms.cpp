// The unified Collective API: registry semantics (lookup, duplicate
// rejection, capability validation), the two new first-class algorithms
// (Ok-Topk and the count-sketch reducer) against reference_reduce, the
// full zoo cross-product over {ideal switch, two-tier 8:1} fabrics, and
// the online per-tensor selector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/oktopk.h"
#include "baselines/sketch_reducer.h"
#include "baselines/zoo.h"
#include "core/algorithm.h"
#include "core/selector.h"
#include "perfmodel/perfmodel.h"
#include "sim/rng.h"
#include "tensor/coo.h"
#include "tensor/generators.h"

namespace omr {
namespace {

using tensor::DenseTensor;

std::vector<DenseTensor> inputs(std::size_t workers, std::size_t n,
                                double sparsity, std::uint64_t seed,
                                tensor::OverlapMode mode =
                                    tensor::OverlapMode::kRandom) {
  sim::Rng rng(seed);
  return tensor::make_multi_worker(workers, n, 256, sparsity, mode, rng);
}

core::ClusterSpec flat() {
  baselines::register_zoo();
  return core::ClusterSpec{};
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(Registry, UnknownNameThrowsNamingTheCatalogue) {
  auto ts = inputs(2, 512, 0.5, 1);
  try {
    core::run_collective("no_such_algorithm", ts, {}, flat());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown collective algorithm 'no_such_algorithm'"),
              std::string::npos)
        << what;
    // The message lists the registered names so typos are self-diagnosing.
    EXPECT_NE(what.find("ring"), std::string::npos) << what;
    EXPECT_NE(what.find("omnireduce"), std::string::npos) << what;
  }
}

/// The registered names, without the one the duplicate test adds when
/// every case runs in one process.
std::vector<std::string> zoo_names() {
  flat();
  std::vector<std::string> names = core::CollectiveRegistry::global().names();
  names.erase(std::remove(names.begin(), names.end(), "test_dummy"),
              names.end());
  return names;
}

TEST(Registry, ContainsTheFullZoo) {
  // Exactly the names a bench, example, perfbench workload or the DDL
  // layer dispatches, sorted.
  EXPECT_EQ(zoo_names(),
            (std::vector<std::string>{
                "agsparse", "agsparse_gloo", "oktopk", "omnireduce",
                "parallax", "ps", "ps_sparse", "ring", "sketch", "sparcml",
                "sparcml_dsar", "sparcml_ssar", "switchml"}));
}

TEST(Registry, EveryNameHasACostModel) {
  // The selector scores a candidate by its perfmodel prior, so a
  // registered name without one would throw at choose time.
  perfmodel::ModelParams p;
  p.n_workers = 8;
  p.tensor_bytes = 4.0 * (1 << 16);
  p.density = 0.1;
  for (const bool colocated : {false, true}) {
    p.colocated = colocated;
    for (const std::string& name : zoo_names()) {
      const double t = perfmodel::predict_seconds(name, p);
      EXPECT_TRUE(std::isfinite(t) && t > 0.0) << name << " " << t;
    }
  }
}

class DummyAlgo final : public core::CollectiveAlgorithm {
 public:
  explicit DummyAlgo(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  core::AlgoCapabilities capabilities() const override { return {}; }
  core::RunStats run(std::vector<DenseTensor>&, const core::Config&,
                     const core::ClusterSpec&) override {
    return {};
  }

 private:
  std::string name_;
};

TEST(Registry, DuplicateRegistrationThrows) {
  flat();  // each gtest case is its own process; make sure the zoo is in
  auto& reg = core::CollectiveRegistry::global();
  reg.register_algorithm(std::make_unique<DummyAlgo>("test_dummy"));
  EXPECT_THROW(
      reg.register_algorithm(std::make_unique<DummyAlgo>("test_dummy")),
      std::invalid_argument);
  EXPECT_THROW(reg.register_algorithm(std::make_unique<DummyAlgo>("ring")),
               std::invalid_argument);
}

TEST(Registry, CapabilityValidationRejectsUnsupportedRequests) {
  auto ts = inputs(4, 512, 0.5, 2);
  // Flat analytic ring: no loss model, no two-tier awareness.
  core::ClusterSpec lossy = flat();
  lossy.fabric.loss_rate = 0.01;
  EXPECT_THROW(core::run_collective("ring", ts, {}, lossy),
               std::invalid_argument);
  core::ClusterSpec two_tier = flat();
  two_tier.topology = core::TopologySpec::two_tier_racks(2, 8.0);
  EXPECT_THROW(core::run_collective("ring", ts, {}, two_tier),
               std::invalid_argument);
  core::ClusterSpec faulty = flat();
  faulty.faults.stragglers.mean_delay_ns = 1000.0;
  EXPECT_THROW(core::run_collective("ring", ts, {}, faulty),
               std::invalid_argument);
  // The sparse baselines are sum-only.
  core::Config max_op;
  max_op.op = core::ReduceOp::kMax;
  EXPECT_THROW(core::run_collective("agsparse", ts, max_op, flat()),
               std::invalid_argument);
  // The engine supports all of the above.
  EXPECT_TRUE(core::capabilities_allow(
      core::CollectiveRegistry::global().at("omnireduce").capabilities(), {},
      lossy));
  EXPECT_FALSE(core::capabilities_allow(
      core::CollectiveRegistry::global().at("ring").capabilities(), {},
      lossy));
}

// ---------------------------------------------------------------------------
// Ok-Topk
// ---------------------------------------------------------------------------

TEST(OkTopk, ExactWhenKeepingEveryEntry) {
  for (std::size_t workers : {2u, 4u, 5u}) {
    auto ts = inputs(workers, 4096, 0.9, 10 + workers);
    const core::RunStats st =
        core::run_collective("oktopk", ts, {}, flat());
    EXPECT_TRUE(st.verified) << workers << " workers";
    EXPECT_GT(st.completion_time, 0);
  }
}

TEST(OkTopk, BalancedPartitionsUnderClusteredSparsity) {
  // All non-zeros clustered into shared blocks: index-range partitioning
  // would send everything to one owner; balanced partitioning must not.
  auto ts = inputs(4, 1 << 14, 0.9, 20, tensor::OverlapMode::kAll);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : ts) coo.push_back(tensor::dense_to_coo(t));
  const auto r = baselines::oktopk_allreduce(coo, {}, {});
  ASSERT_EQ(r.partition_pairs.size(), 4u);
  std::size_t total = 0, max_pairs = 0;
  for (std::size_t p : r.partition_pairs) {
    total += p;
    max_pairs = std::max(max_pairs, p);
  }
  ASSERT_GT(total, 0u);
  const double mean = static_cast<double>(total) / 4.0;
  EXPECT_LE(static_cast<double>(max_pairs), mean * 1.5);
}

TEST(OkTopk, TruncatesToTheGlobalBudget) {
  auto ts = inputs(4, 4096, 0.5, 21);
  std::vector<tensor::CooTensor> coo;
  for (const auto& t : ts) coo.push_back(tensor::dense_to_coo(t));
  baselines::OkTopkOptions opts;
  opts.k = 100;
  const auto r = baselines::oktopk_allreduce(coo, {}, opts);
  EXPECT_GT(r.threshold, 0.0);
  EXPECT_GT(r.result.nnz(), 0u);
  EXPECT_LE(r.result.nnz(), 100u);
}

// ---------------------------------------------------------------------------
// Count-sketch reducer
// ---------------------------------------------------------------------------

TEST(Sketch, ErrorWithinAnalyticEpsilon) {
  // The sketch guarantee is an L2 one (per-entry max-abs error stays O(1)
  // from surviving collisions at any width) — both the direct call and the
  // registry verification measure ||estimate - f||_2.
  auto ts = inputs(4, 4096, 0.9, 30);
  const DenseTensor expect = tensor::reference_sum(ts);
  const auto r = baselines::sketch_allreduce(ts, {}, {});
  const double bound = baselines::sketch_error_bound(
      expect.l2_norm(), expect.nnz(), r.sketch_width);
  EXPECT_LE(tensor::l2_diff(r.result, expect), bound);
  // Registry dispatch verifies with the same epsilon, and the bound
  // rejects grossly wrong results (a zeroed tensor errs by ||f||_2).
  auto ts2 = inputs(4, 4096, 0.9, 30);
  const core::RunStats st = core::run_collective("sketch", ts2, {}, flat());
  EXPECT_TRUE(st.verified);
  EXPECT_LE(st.max_error, bound);
  EXPECT_LT(bound, expect.l2_norm());
}

TEST(Sketch, WiderSketchConverges) {
  auto run = [](double width_factor) {
    auto ts = inputs(4, 8192, 0.95, 31);
    const DenseTensor expect = tensor::reference_sum(ts);
    baselines::SketchOptions opts;
    opts.width_factor = width_factor;
    const auto r = baselines::sketch_allreduce(ts, {}, opts);
    return std::make_pair(
        tensor::l2_diff(r.result, expect),
        baselines::sketch_error_bound(expect.l2_norm(), expect.nnz(),
                                      r.sketch_width));
  };
  const auto [narrow_err, narrow_bound] = run(1.0);
  const auto [wide_err, wide_bound] = run(16.0);
  EXPECT_LT(wide_err, narrow_err);   // fewer collisions with more counters
  EXPECT_LE(wide_err, wide_bound);   // and still inside the (m/w) L2 bound
  EXPECT_LT(wide_bound, narrow_bound);
}

TEST(Sketch, DeterministicForFixedSeed) {
  auto run = [] {
    auto ts = inputs(4, 4096, 0.9, 32);
    return baselines::sketch_allreduce(ts, {}, {});
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.stats.completion_time, b.stats.completion_time);
  EXPECT_EQ(a.sketch_width, b.sketch_width);
  ASSERT_EQ(a.result.size(), b.result.size());
  for (std::size_t i = 0; i < a.result.size(); ++i) {
    EXPECT_EQ(a.result[i], b.result[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Zoo cross-product: every registered algorithm x {ideal, two-tier 8:1}
// ---------------------------------------------------------------------------

TEST(ZooCrossProduct, EveryAlgorithmVerifiesOnTheIdealSwitch) {
  const core::ClusterSpec cluster = flat();
  std::uint64_t seed = 40;
  for (const auto& name : core::CollectiveRegistry::global().names()) {
    if (name == "test_dummy") continue;  // registered by the duplicate test
    auto ts = inputs(4, 4096, 0.9, seed++);
    const core::RunStats st = core::run_collective(name, ts, {}, cluster);
    EXPECT_TRUE(st.verified) << name;
    EXPECT_GT(st.completion_time, 0) << name;
  }
}

TEST(ZooCrossProduct, TwoTierRunsOrRejectsByCapability) {
  core::ClusterSpec cluster = flat();
  cluster.topology = core::TopologySpec::two_tier_racks(2, 8.0);
  std::uint64_t seed = 60;
  for (const auto& name : core::CollectiveRegistry::global().names()) {
    if (name == "test_dummy") continue;
    auto& algo = core::CollectiveRegistry::global().at(name);
    auto ts = inputs(4, 4096, 0.9, seed++);
    if (core::capabilities_allow(algo.capabilities(), {}, cluster)) {
      const core::RunStats st = core::run_collective(name, ts, {}, cluster);
      EXPECT_TRUE(st.verified) << name;
    } else {
      EXPECT_THROW(core::run_collective(name, ts, {}, cluster),
                   std::invalid_argument)
          << name;
    }
  }
}

TEST(ZooCrossProduct, TopologyAwareSetIsExact) {
  // Pin which algorithms claim two-tier support so a capability regression
  // is loud: the engine pair, nothing else.
  core::ClusterSpec cluster = flat();
  cluster.topology = core::TopologySpec::two_tier_racks(2, 8.0);
  std::vector<std::string> aware;
  for (const auto& name : core::CollectiveRegistry::global().names()) {
    if (name == "test_dummy") continue;
    if (core::capabilities_allow(
            core::CollectiveRegistry::global().at(name).capabilities(), {},
            cluster)) {
      aware.push_back(name);
    }
  }
  EXPECT_EQ(aware, (std::vector<std::string>{"omnireduce", "switchml"}));
}

// ---------------------------------------------------------------------------
// Online selector
// ---------------------------------------------------------------------------

TEST(Selector, PrefersSparseAlgorithmsAtHighSparsity) {
  flat();
  core::OnlineSelector selector;
  core::ClusterSpec colocated = core::ClusterSpec::colocated();
  // Dense tensor on a colocated cluster: ring is bandwidth-optimal.
  const auto dense =
      selector.choose(8, 1 << 20, 1.0, {}, colocated);
  EXPECT_EQ(dense.algorithm, "ring");
  // 1% density: a sparse-aware algorithm must win.
  const auto sparse = selector.choose(8, 1 << 20, 0.01, {}, colocated);
  EXPECT_NE(sparse.algorithm, "ring");
  EXPECT_GT(sparse.predicted_seconds, 0.0);
  EXPECT_LT(sparse.corrected_seconds, dense.corrected_seconds);
}

TEST(Selector, DropsCandidatesTheClusterRulesOut) {
  flat();
  core::OnlineSelector selector;
  core::ClusterSpec lossy;
  lossy.fabric.loss_rate = 0.01;
  // Only the engine can simulate loss among the default candidates.
  const auto d = selector.choose(8, 1 << 20, 1.0, {}, lossy);
  EXPECT_EQ(d.algorithm, "omnireduce");
}

TEST(Selector, ThrowsWhenNoCandidateIsViable) {
  flat();
  core::SelectorConfig cfg;
  cfg.candidates = {"ring"};
  core::OnlineSelector selector(cfg);
  core::ClusterSpec lossy;
  lossy.fabric.loss_rate = 0.01;
  EXPECT_THROW(selector.choose(8, 1 << 20, 1.0, {}, lossy),
               std::invalid_argument);
}

TEST(Selector, UnknownCandidateThrowsAtChooseTime) {
  flat();
  core::SelectorConfig cfg;
  cfg.candidates = {"ring", "omnireduse"};
  // Constructing is legal: the zoo may be registered after the selector.
  core::OnlineSelector selector(cfg);
  try {
    selector.choose(8, 1 << 20, 0.5, {}, core::ClusterSpec{});
    FAIL() << "a misspelled candidate narrowed the choice silently";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "unknown collective algorithm 'omnireduse'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Selector, TelemetryFeedbackOverridesTheModel) {
  flat();
  core::SelectorConfig cfg;
  cfg.candidates = {"ring", "omnireduce"};
  cfg.ewma_alpha = 1.0;  // adopt the observation immediately
  core::OnlineSelector selector(cfg);
  core::ClusterSpec colocated = core::ClusterSpec::colocated();
  const auto first = selector.choose(8, 1 << 20, 1.0, {}, colocated);
  ASSERT_EQ(first.algorithm, "ring");
  // The fabric reports ring running 10x slower than predicted; the
  // corrected score must now favor the engine.
  selector.observe("ring", "", 1 << 20, 1.0, first.predicted_seconds,
                   first.predicted_seconds * 10.0);
  const auto second = selector.choose(8, 1 << 20, 1.0, {}, colocated);
  EXPECT_EQ(second.algorithm, "omnireduce");
}

TEST(Selector, ReplayIsDeterministic) {
  flat();
  auto replay = [] {
    core::OnlineSelector selector;
    core::ClusterSpec cluster;
    std::vector<std::string> choices;
    for (int step = 0; step < 8; ++step) {
      auto ts = inputs(4, 1 << 14, step % 2 == 0 ? 0.5 : 0.99,
                       100 + static_cast<std::uint64_t>(step));
      core::SelectorDecision d;
      selector.run(ts, {}, cluster, &d);
      choices.push_back(d.algorithm);
    }
    return choices;
  };
  EXPECT_EQ(replay(), replay());
}

TEST(Selector, RunReducesCorrectly) {
  flat();
  core::OnlineSelector selector;
  core::ClusterSpec cluster;
  auto ts = inputs(4, 4096, 0.95, 33);
  const DenseTensor expect = tensor::reference_sum(ts);
  core::SelectorDecision d;
  const core::RunStats st =
      selector.run(ts, {}, cluster, &d, /*verify=*/true);
  EXPECT_TRUE(st.verified) << d.algorithm;
  EXPECT_FALSE(d.algorithm.empty());
}

}  // namespace
}  // namespace omr
