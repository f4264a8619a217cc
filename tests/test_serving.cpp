// Sharded parameter-server serving tier (src/serve) on the multi-tenant
// fabric: shard routing, hot-embedding caching, request batching, Zipf
// traffic, and the serving-torture sweep. Every serving run must conserve
// requests (issued == served, nothing in flight at drain), replay
// byte-identically on rerun, and LRU hit counts
// must be exactly monotone in cache capacity. A zero-serving fabric must
// stay byte-identical to the pre-serving goldens.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/tenancy.h"
#include "net/topology.h"
#include "serve/cache.h"
#include "serve/serving.h"
#include "serve/shard_map.h"
#include "serve/traffic.h"
#include "sim/rng.h"
#include "telemetry/telemetry.h"
#include "tensor/generators.h"

namespace omr::serve {
namespace {

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

core::Fabric::StepTensors make_steps(std::size_t steps, std::size_t n_workers,
                                     std::size_t n, double sparsity,
                                     std::uint64_t seed) {
  sim::Rng rng(seed);
  core::Fabric::StepTensors out(steps);
  for (auto& step : out) {
    step.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) {
      step.push_back(tensor::make_block_sparse(n, 256, sparsity, rng));
    }
  }
  return out;
}

// One serving scenario on an 8-machine fabric: clients on rack-0 machines
// {0..}, shards on rack-1 machines {4..}, optional co-tenant trainer on
// the remaining machines of both racks (workers {2,3}, aggregator {7}).
struct Scenario {
  core::TenantFabricSpec fspec;
  core::ServeSpec sspec;
  bool co_trainer = false;
};

struct Outcome {
  std::string json;  // full fabric report (includes the serve section)
  telemetry::ServeReport report;
  bool trainer_verified = false;
};

Outcome run_scenario(const Scenario& sc) {
  core::Fabric fabric(sc.fspec);
  std::vector<std::size_t> clients;
  std::vector<std::size_t> shards;
  for (std::size_t c = 0; c < sc.sspec.n_clients; ++c) clients.push_back(c);
  for (std::size_t s = 0; s < sc.sspec.n_shards; ++s) shards.push_back(4 + s);
  ServingJob job(sc.sspec, clients, shards);
  fabric.add_custom_job({"serve"}, job);
  core::Fabric::StepTensors steps;  // outlives run(): add_job keeps a ref
  if (sc.co_trainer) {
    core::JobSpec t;
    t.name = "trainer";
    t.config.deterministic_reduction = true;
    t.worker_machines = {2, 3};
    t.aggregator_machines = {7};
    steps = make_steps(1, 2, 8192, 0.5, sc.sspec.seed ^ 0xabcdULL);
    fabric.add_job(t, steps);
  }
  fabric.run();

  Outcome out;
  std::ostringstream os;
  fabric.report().write_json(os);
  out.json = os.str();
  out.report = job.serve_report();
  if (sc.co_trainer) {
    const telemetry::FabricReport report = fabric.report();
    for (const auto& row : report.jobs) {
      if (row.name == "trainer") out.trainer_verified = row.verified;
    }
  }
  return out;
}

void check_conservation(const Scenario& sc, const Outcome& out) {
  const telemetry::ServeReport& r = out.report;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(sc.sspec.n_clients) *
      sc.sspec.requests_per_client;
  ASSERT_EQ(r.requests_issued, expected);
  ASSERT_EQ(r.responses_received, expected);
  ASSERT_EQ(r.in_flight_at_drain, 0u);
  ASSERT_EQ(r.lookups + r.updates, expected);
  ASSERT_EQ(r.cache_hits + r.cache_misses, r.lookups);
  ASSERT_GE(r.hit_rate, 0.0);
  ASSERT_LE(r.hit_rate, 1.0);
  if (sc.sspec.cache_capacity == 0) {
    ASSERT_EQ(r.cache_hits, 0u);
  }
  std::uint64_t shard_requests = 0;
  for (const auto& s : r.shards) shard_requests += s.requests;
  ASSERT_EQ(shard_requests, expected);
  ASSERT_EQ(r.lanes.size(), 4u);
  for (const auto& lane : r.lanes) {
    ASSERT_LE(lane.p50_ns, lane.p99_ns) << lane.name;
    ASSERT_LE(lane.p99_ns, lane.p999_ns) << lane.name;
  }
  ASSERT_GT(r.finish, r.first_issue);
}

// --- shard routing ---------------------------------------------------------

TEST(Serving, ShardRoutingDeterministicAndCovers) {
  for (const auto routing : {core::ServeSpec::Routing::kHash,
                             core::ServeSpec::Routing::kRange}) {
    for (const std::size_t n_shards : {1u, 2u, 3u, 8u}) {
      const std::size_t key_space = 4096;
      const ShardMap map(routing, n_shards, key_space);
      const ShardMap replay(routing, n_shards, key_space);
      std::vector<std::uint64_t> per_shard(n_shards, 0);
      for (std::uint64_t k = 0; k < key_space; ++k) {
        const std::size_t s = map.shard_of(k);
        ASSERT_LT(s, n_shards);
        // Pure function: same key always lands on the same shard.
        ASSERT_EQ(s, replay.shard_of(k));
        ++per_shard[s];
      }
      std::uint64_t total = 0;
      for (const std::uint64_t c : per_shard) {
        EXPECT_GT(c, 0u);  // every shard owns keys
        total += c;
      }
      EXPECT_EQ(total, key_space);  // every key owned exactly once
    }
  }
}

TEST(Serving, ReshardingDoublesSplitInPlace) {
  // N -> 2N resharding is a pure split: shard s's keys land only on
  // {2s, 2s+1}, so no key ever crosses to another shard family.
  const std::size_t key_space = 8192;
  for (const auto routing : {core::ServeSpec::Routing::kHash,
                             core::ServeSpec::Routing::kRange}) {
    for (const std::size_t n : {1u, 2u, 4u, 8u}) {
      const ShardMap coarse(routing, n, key_space);
      const ShardMap fine(routing, 2 * n, key_space);
      for (std::uint64_t k = 0; k < key_space; ++k) {
        EXPECT_EQ(fine.shard_of(k) / 2, coarse.shard_of(k)) << "key " << k;
      }
    }
  }
}

TEST(Serving, ShardMapRejectsEmptyShapes) {
  EXPECT_THROW(ShardMap(core::ServeSpec::Routing::kHash, 0, 16),
               std::invalid_argument);
  EXPECT_THROW(ShardMap(core::ServeSpec::Routing::kRange, 4, 0),
               std::invalid_argument);
}

// --- embedding cache -------------------------------------------------------

TEST(Serving, CacheLruEvictsLeastRecentlyUsed) {
  EmbeddingCache cache(core::ServeSpec::CachePolicy::kLru, 3);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  ASSERT_TRUE(cache.lookup(1));  // 1 becomes most recent; victim is now 2
  cache.put(4, 40);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(2));
  std::uint32_t v = 0;
  EXPECT_TRUE(cache.lookup(1, &v));
  EXPECT_EQ(v, 10u);
  EXPECT_TRUE(cache.lookup(3));
  EXPECT_TRUE(cache.lookup(4));
  // Write-through overwrite refreshes the version without growing.
  cache.put(3, 31);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.lookup(3, &v));
  EXPECT_EQ(v, 31u);
}

TEST(Serving, CacheLfuEvictsColdestEntry) {
  EmbeddingCache cache(core::ServeSpec::CachePolicy::kLfu, 3);
  cache.put(1, 1);
  cache.put(2, 2);
  cache.put(3, 3);
  // Heat up 1 and 2; 3 stays at its insert frequency and is the victim.
  ASSERT_TRUE(cache.lookup(1));
  ASSERT_TRUE(cache.lookup(1));
  ASSERT_TRUE(cache.lookup(2));
  EXPECT_EQ(cache.resident_keys().front(), 3u);  // next victim first
  cache.put(4, 4);
  EXPECT_FALSE(cache.lookup(3));
  EXPECT_TRUE(cache.lookup(1));
  EXPECT_TRUE(cache.lookup(2));
  EXPECT_TRUE(cache.lookup(4));
}

TEST(Serving, CacheCapacityZeroIsInert) {
  EmbeddingCache cache(core::ServeSpec::CachePolicy::kLru, 0);
  cache.put(1, 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(1));
  EXPECT_EQ(cache.evictions(), 0u);
}

// --- traffic ---------------------------------------------------------------

TEST(Serving, ZipfIsSkewedAndDeterministic) {
  const std::size_t n = 128;
  ZipfGenerator zipf(n, 1.1);
  sim::Rng a(42);
  sim::Rng b(42);
  std::vector<std::uint64_t> counts(n, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = zipf.next(a);
    ASSERT_LT(k, n);
    ASSERT_EQ(k, zipf.next(b));  // same seed, same stream
    ++counts[k];
  }
  // Rank 0 is the hottest key by a wide margin under alpha > 1.
  EXPECT_GT(counts[0], counts[n - 1] * 10);
  EXPECT_GT(counts[0], counts[1]);

  // alpha = 0 degenerates to uniform: no rank may dominate.
  ZipfGenerator uniform(n, 0.0);
  sim::Rng c(7);
  std::vector<std::uint64_t> ucounts(n, 0);
  for (int i = 0; i < 20000; ++i) ++ucounts[uniform.next(c)];
  for (const std::uint64_t cnt : ucounts) EXPECT_LT(cnt, 20000u / n * 4);
}

TEST(Serving, ZipfRejectsDegenerateShapes) {
  EXPECT_THROW(ZipfGenerator(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(16, -0.5), std::invalid_argument);
}

// --- latency histograms ----------------------------------------------------

TEST(Serving, HistogramMergeAndQuantile) {
  telemetry::Histogram a = telemetry::Histogram::exponential(100.0, 1e6, 16);
  telemetry::Histogram b = telemetry::Histogram::exponential(100.0, 1e6, 16);
  for (int i = 0; i < 90; ++i) a.add(200.0);
  for (int i = 0; i < 10; ++i) b.add(5e5);
  a.merge(b);
  EXPECT_EQ(a.total, 100u);
  EXPECT_EQ(a.min, 200.0);
  EXPECT_EQ(a.max, 5e5);
  const double p50 = telemetry::histogram_quantile(a, 0.50);
  const double p99 = telemetry::histogram_quantile(a, 0.99);
  EXPECT_LT(p50, 1000.0);   // median sits in the 200ns bin
  EXPECT_GE(p99, 1e5);      // tail sits in the 5e5 bin
  EXPECT_LE(p50, p99);
  // Quantiles of an empty histogram are defined (0), not UB.
  telemetry::Histogram empty = telemetry::Histogram::exponential(1.0, 10.0, 4);
  EXPECT_EQ(telemetry::histogram_quantile(empty, 0.99), 0.0);
  // Merging mismatched layouts is a hard error, not silent corruption.
  telemetry::Histogram other = telemetry::Histogram::exponential(1.0, 10.0, 4);
  EXPECT_THROW(a.merge(other), std::logic_error);
}

// --- serving fabric job ----------------------------------------------------

Scenario base_scenario() {
  Scenario sc;
  sc.fspec.n_machines = 8;
  sc.fspec.topology = core::TopologySpec::two_tier_racks(2, 4.0);
  sc.sspec.n_clients = 2;
  sc.sspec.n_shards = 2;
  sc.sspec.key_space = 512;
  sc.sspec.requests_per_client = 200;
  sc.sspec.cache_capacity = 32;
  sc.sspec.zipf_alpha = 0.9;
  sc.sspec.update_fraction = 0.1;
  sc.sspec.interarrival = sim::microseconds(1);
  return sc;
}

TEST(Serving, BatchWindowZeroIsUnbatchedByteIdentically) {
  // window = 0 is the unbatched path: every request is its own batch,
  // flushed the instant it arrives (occupancy exactly 1), and the whole
  // run replays byte-identically.
  Scenario sc = base_scenario();
  sc.sspec.batch_window = 0;
  const Outcome a = run_scenario(sc);
  const Outcome b = run_scenario(sc);
  EXPECT_EQ(a.json, b.json);
  std::uint64_t batches = 0;
  for (const auto& s : a.report.shards) {
    EXPECT_EQ(s.batches, s.requests);
    if (s.batches > 0) {
      EXPECT_EQ(s.mean_batch_occupancy, 1.0);
    }
    batches += s.batches;
  }
  EXPECT_EQ(batches, a.report.requests_issued);

  // A real window coalesces: strictly fewer batches than requests.
  sc.sspec.batch_window = sim::microseconds(5);
  const Outcome batched = run_scenario(sc);
  std::uint64_t wbatches = 0;
  std::uint64_t wrequests = 0;
  for (const auto& s : batched.report.shards) {
    wbatches += s.batches;
    wrequests += s.requests;
  }
  EXPECT_LT(wbatches, wrequests);
}

TEST(Serving, CoTenantTrainingJobSharesTheFabric) {
  Scenario sc = base_scenario();
  sc.co_trainer = true;
  const Outcome out = run_scenario(sc);
  check_conservation(sc, out);
  EXPECT_TRUE(out.trainer_verified);
  // Per-tenant link attribution names both tenants on the shared fabric.
  EXPECT_NE(out.json.find("\"link_shares\":["), std::string::npos);
  EXPECT_NE(out.json.find("\"job\":\"serve\""), std::string::npos);
  EXPECT_NE(out.json.find("\"job\":\"trainer\""), std::string::npos);
  EXPECT_NE(out.json.find("\"kind\":\"serve\""), std::string::npos);
  EXPECT_NE(out.json.find("\"schema\":\"omnireduce.serve_report.v1\""),
            std::string::npos);
}

TEST(Serving, MalformedServeSpecsThrow) {
  core::ServeSpec s;
  s.n_clients = 2;
  s.n_shards = 2;
  EXPECT_THROW(ServingJob(s, {0}, {2, 3}), std::invalid_argument);
  EXPECT_THROW(ServingJob(s, {0, 1}, {2}), std::invalid_argument);
  core::ServeSpec bad = s;
  bad.requests_per_client = 0;
  EXPECT_THROW(ServingJob(bad, {0, 1}, {2, 3}), std::invalid_argument);
  bad = s;
  bad.update_fraction = 1.5;
  EXPECT_THROW(ServingJob(bad, {0, 1}, {2, 3}), std::invalid_argument);
  bad = s;
  bad.key_space = 0;
  EXPECT_THROW(ServingJob(bad, {0, 1}, {2, 3}), std::invalid_argument);
  bad = s;
  bad.zipf_alpha = -1.0;
  EXPECT_THROW(ServingJob(bad, {0, 1}, {2, 3}), std::invalid_argument);

  // Machines outside the fabric are rejected at attach time.
  core::TenantFabricSpec fspec;
  fspec.n_machines = 3;
  core::Fabric fabric(fspec);
  ServingJob job(s, {0, 1}, {2, 9});
  EXPECT_THROW(fabric.add_custom_job({"serve"}, job), std::invalid_argument);
}

// --- golden pin ------------------------------------------------------------

// The PR-9 tenancy goldens, byte for byte: adding the serving tier (the
// FabricJob plumbing, the tenant-index refactor, the report "serve"
// section) must not move a single byte of a zero-serving fabric's report.
// Constants captured from the pre-serving tree; see tests/test_tenancy.cpp
// for the scenarios.
TEST(Serving, ZeroServingFabricMatchesPreServingGoldens) {
  {
    core::TenantFabricSpec spec;
    spec.n_machines = 8;
    spec.topology = core::TopologySpec::two_tier_racks(2, 8.0);
    core::Fabric fabric(spec);

    core::JobSpec a;
    a.name = "jobA";
    a.config.deterministic_reduction = true;
    a.worker_machines = {0, 1, 4, 5};
    a.aggregator_machines = {3};
    auto ta = make_steps(2, 4, 16384, 0.5, 11);

    core::JobSpec b;
    b.name = "jobB";
    b.config.deterministic_reduction = true;
    b.worker_machines = {2, 3, 6, 7};
    b.aggregator_machines = {6};
    b.weight = 2.0;
    auto tb = make_steps(2, 4, 16384, 0.5, 22);

    fabric.add_job(a, ta);
    fabric.add_job(b, tb);
    fabric.run();
    std::ostringstream os;
    fabric.report().write_json(os);
    EXPECT_EQ(os.str().size(), 1393u);
    EXPECT_EQ(fnv1a64(os.str()), 0xafeb28a426a6a423ULL);
  }
  {
    core::TenantFabricSpec spec;
    spec.n_machines = 10;
    core::Fabric fabric(spec);

    core::JobSpec job;
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
    std::ostringstream os;
    fabric.report().write_json(os);
    EXPECT_EQ(os.str().size(), 403u);
    EXPECT_EQ(fnv1a64(os.str()), 0xd7fcb3155a293e0eULL);
  }
}

// --- torture sweep ---------------------------------------------------------

// Seeded sweep over (shards, clients, topology, skew, batch window, cache
// shape, routing, co-tenant). Every iteration checks conservation, replay
// byte-identity (rerun, full fabric JSON), and exact
// LRU hit-count monotonicity in cache capacity on a serve-only twin.
TEST(Serving, TortureSweep) {
  constexpr int kIterations = 200;
  for (int i = 0; i < kIterations; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    sim::Rng r(0x5e47eULL +
               static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL);

    Scenario sc;
    sc.fspec.n_machines = 8;
    if (r.next_bool(0.6)) {
      constexpr std::array<double, 3> kOversub = {1.0, 4.0, 8.0};
      sc.fspec.topology = core::TopologySpec::two_tier_racks(
          2, kOversub[r.next_below(kOversub.size())]);
    }
    core::ServeSpec& s = sc.sspec;
    s.n_clients = 1 + r.next_below(3);
    s.n_shards = 1 + r.next_below(3);
    s.key_space = 256 + r.next_below(1793);
    s.embedding_dim = 16 + r.next_below(49);
    s.zipf_alpha = 1.25 * r.next_double();
    s.update_fraction = 0.3 * r.next_double();
    s.requests_per_client = 60 + r.next_below(81);
    s.interarrival = 500 + static_cast<sim::Time>(r.next_below(3001));
    constexpr std::array<sim::Time, 4> kWindows = {0, 500, 2000, 5000};
    s.batch_window = kWindows[r.next_below(kWindows.size())];
    constexpr std::array<std::size_t, 4> kCaps = {0, 16, 64, 256};
    s.cache_capacity = kCaps[r.next_below(kCaps.size())];
    s.cache_policy = i % 5 == 0 ? core::ServeSpec::CachePolicy::kLfu
                                : core::ServeSpec::CachePolicy::kLru;
    s.routing = r.next_bool(0.5) ? core::ServeSpec::Routing::kRange
                                 : core::ServeSpec::Routing::kHash;
    s.seed = r.next_u64();
    sc.co_trainer = i % 3 == 0;

    const Outcome first = run_scenario(sc);
    check_conservation(sc, first);
    if (sc.co_trainer) {
      ASSERT_TRUE(first.trainer_verified);
    }

    const Outcome again = run_scenario(sc);
    ASSERT_EQ(first.json, again.json);

    // LRU inclusion property on a serve-only twin: same arrival sequences
    // (open-loop schedule; requests and responses ride disjoint
    // directional links), so a larger cache hits a superset.
    Scenario mono = sc;
    mono.co_trainer = false;
    mono.sspec.cache_policy = core::ServeSpec::CachePolicy::kLru;
    const std::size_t lo_cap = kCaps[r.next_below(3)];  // 0, 16 or 64
    const std::size_t hi_cap = lo_cap == 0 ? 64 : lo_cap * 4;
    mono.sspec.cache_capacity = lo_cap;
    const Outcome lo = run_scenario(mono);
    mono.sspec.cache_capacity = hi_cap;
    const Outcome hi = run_scenario(mono);
    ASSERT_EQ(lo.report.requests_issued, hi.report.requests_issued);
    ASSERT_EQ(lo.report.lookups, hi.report.lookups);
    ASSERT_EQ(lo.report.updates, hi.report.updates);
    ASSERT_GE(hi.report.cache_hits, lo.report.cache_hits);
  }
}

}  // namespace
}  // namespace omr::serve
