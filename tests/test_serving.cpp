// Sharded parameter-server serving tier (src/serve) on the multi-tenant
// fabric: shard routing, hot-embedding caching, request batching, Zipf
// traffic, and the serving-torture sweep. Every serving run must conserve
// requests (issued == served, nothing in flight at drain), replay
// byte-identically on rerun, and LRU hit counts
// must be exactly monotone in cache capacity. A zero-serving fabric must
// stay byte-identical to the pre-serving goldens.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <latch>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
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

// FNV-1a over a stream of 64-bit words, little-endian byte order.
struct WordHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
};

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

// The lookup lane is the merge of the hit and miss lanes: bin by bin, and
// in total, sum, min and max. Each lane also counts what the shards did.
void check_lookup_lane(const telemetry::ServeReport& r) {
  const telemetry::Histogram* lanes[3] = {};
  const char* names[3] = {"lookup", "lookup_hit", "lookup_miss"};
  for (const auto& lane : r.lanes) {
    for (int k = 0; k < 3; ++k) {
      if (lane.name == names[k]) lanes[k] = &lane.latency_ns;
    }
  }
  ASSERT_TRUE(lanes[0] != nullptr && lanes[1] != nullptr &&
              lanes[2] != nullptr);
  const telemetry::Histogram& lookup = *lanes[0];
  const telemetry::Histogram& hit = *lanes[1];
  const telemetry::Histogram& miss = *lanes[2];
  ASSERT_EQ(lookup.counts.size(), hit.counts.size());
  ASSERT_EQ(lookup.counts.size(), miss.counts.size());
  for (std::size_t i = 0; i < lookup.counts.size(); ++i) {
    ASSERT_EQ(lookup.counts[i], hit.counts[i] + miss.counts[i]) << "bin " << i;
  }
  ASSERT_EQ(lookup.total, hit.total + miss.total);
  ASSERT_EQ(lookup.sum, hit.sum + miss.sum);
  ASSERT_EQ(lookup.total, r.lookups);
  ASSERT_EQ(hit.total, r.cache_hits);
  ASSERT_EQ(miss.total, r.cache_misses);
  if (hit.total == 0 || miss.total == 0) {
    const telemetry::Histogram& only = hit.total == 0 ? miss : hit;
    ASSERT_EQ(lookup.min, only.min);
    ASSERT_EQ(lookup.max, only.max);
  } else {
    ASSERT_EQ(lookup.min, std::min(hit.min, miss.min));
    ASSERT_EQ(lookup.max, std::max(hit.max, miss.max));
  }
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

// Reference model of both policies: the victim is the entry with the
// lowest (frequency, last use); LRU keeps every frequency at 0.
class ReferenceCache {
 public:
  ReferenceCache(core::ServeSpec::CachePolicy policy, std::size_t capacity)
      : lfu_(policy == core::ServeSpec::CachePolicy::kLfu),
        capacity_(capacity) {}

  bool lookup(std::uint64_t key, std::uint32_t* version) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    *version = it->second.version;
    use(key, it->second);
    return true;
  }

  void put(std::uint64_t key, std::uint32_t version) {
    if (capacity_ == 0) return;
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.version = version;
      use(key, it->second);
      return;
    }
    if (entries_.size() == capacity_) {
      const auto victim = order_.begin();
      entries_.erase(std::get<2>(*victim));
      order_.erase(victim);
      ++evictions;
    }
    const Entry e{version, lfu_ ? 1u : 0u, ++tick_};
    entries_.emplace(key, e);
    order_.insert({e.freq, e.tick, key});
  }

  std::size_t size() const { return entries_.size(); }
  std::vector<std::uint64_t> resident_keys() const {
    std::vector<std::uint64_t> keys;
    for (const auto& o : order_) keys.push_back(std::get<2>(o));
    return keys;
  }

  std::uint64_t evictions = 0;

 private:
  struct Entry {
    std::uint32_t version;
    std::uint64_t freq;
    std::uint64_t tick;
  };

  void use(std::uint64_t key, Entry& e) {
    order_.erase({e.freq, e.tick, key});
    if (lfu_) ++e.freq;
    e.tick = ++tick_;
    order_.insert({e.freq, e.tick, key});
  }

  bool lfu_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::map<std::uint64_t, Entry> entries_;
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> order_;
};

TEST(Serving, CacheMatchesReferenceModel) {
  // The index's home slot is the low bits of ShardMap::mix64(key), and at
  // capacity 4096 it has at most 2^16 slots: keys whose hashes share the
  // low 16 bits all start probing from one slot.
  std::vector<std::uint64_t> colliders;
  for (std::uint64_t k = 0; colliders.size() < 96; ++k) {
    if ((ShardMap::mix64(k) & 0xffffULL) == 0x2a2aULL) colliders.push_back(k);
  }
  for (const auto policy : {core::ServeSpec::CachePolicy::kLru,
                            core::ServeSpec::CachePolicy::kLfu}) {
    for (const std::size_t capacity : {0u, 1u, 2u, 3u, 64u, 4096u}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) +
                   (policy == core::ServeSpec::CachePolicy::kLfu ? " lfu"
                                                                 : " lru"));
      sim::Rng r(0xcac4eULL + capacity);
      std::vector<std::uint64_t> others;
      for (std::size_t i = 0; i < 2 * capacity + 8; ++i) {
        others.push_back(r.next_u64());
      }
      EmbeddingCache cache(policy, capacity);
      ReferenceCache ref(policy, capacity);
      const std::size_t ops = 2 * capacity + 2000;
      for (std::size_t op = 0; op < ops; ++op) {
        const std::uint64_t key =
            r.next_bool(0.25) ? colliders[r.next_below(colliders.size())]
                              : others[r.next_below(others.size())];
        if (r.next_bool(0.6)) {
          std::uint32_t got = 0;
          std::uint32_t want = 0;
          const bool hit = cache.lookup(key, &got);
          ASSERT_EQ(hit, ref.lookup(key, &want)) << "op " << op;
          if (hit) {
            ASSERT_EQ(got, want) << "op " << op;
          } else {  // fill on miss, as a shard does
            cache.put(key, 0);
            ref.put(key, 0);
          }
        } else {
          const auto version = static_cast<std::uint32_t>(r.next_u64());
          cache.put(key, version);
          ref.put(key, version);
        }
        ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
        ASSERT_EQ(cache.evictions(), ref.evictions) << "op " << op;
        ASSERT_EQ(cache.resident_keys(), ref.resident_keys()) << "op " << op;
        if (capacity <= 64 || op % 256 == 0) {
          // Every resident key is reachable through the index. Lookups
          // refresh recency, so probe a copy.
          EmbeddingCache copy = cache;
          for (const std::uint64_t k : ref.resident_keys()) {
            ASSERT_TRUE(copy.lookup(k)) << "op " << op << " key " << k;
          }
        }
      }
      if (capacity > 0) {
        EXPECT_GT(cache.evictions(), 0u);
      }
    }
  }
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
  EXPECT_THROW(ZipfGenerator(16, std::nan("")), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator((std::size_t{1} << 32) + 1, 0.9),
               std::invalid_argument);
  // The uniform path keeps no table, so any key space is fine.
  const ZipfGenerator uniform((std::size_t{1} << 40), 0.0);
  sim::Rng rng(5);
  EXPECT_LT(uniform.next(rng), std::uint64_t{1} << 40);
}

// Reference sampler: the full cumulative table and a binary search over
// all of it, clamped to the last rank.
struct ReferenceZipf {
  std::vector<double> cum;

  ReferenceZipf(std::size_t n, double alpha) : cum(n) {
    double c = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      c += std::pow(static_cast<double>(i + 1), -alpha);
      cum[i] = c;
    }
  }
  std::uint64_t rank_at(double u) const {
    const auto i = static_cast<std::uint64_t>(
        std::upper_bound(cum.begin(), cum.end(), u) - cum.begin());
    return std::min<std::uint64_t>(i, cum.size() - 1);
  }
};

TEST(Serving, ZipfDrawsMatchFullTableSearch) {
  struct Shape {
    std::size_t n;
    double alpha;
    int draws;
  };
  const Shape shapes[] = {
      {1, 0.9, 1 << 16},                        // one rank
      {1001, 1.0, 1 << 18},                     // ranks not a bucket multiple
      {4097, 8.0, 1 << 18},                     // running sum saturates
      {37, 0.5, 1 << 16},
      {std::size_t{1} << 20, 0.9, 1 << 19},     // the serving shape
  };
  int total_draws = 0;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("n " + std::to_string(shape.n) + " alpha " +
                 std::to_string(shape.alpha));
    const ZipfGenerator zipf(shape.n, shape.alpha);
    const ReferenceZipf ref(shape.n, shape.alpha);
    sim::Rng a(0x7e57ULL + shape.n);
    sim::Rng b(0x7e57ULL + shape.n);
    for (int i = 0; i < shape.draws; ++i) {
      ASSERT_EQ(zipf.next(a), ref.rank_at(b.next_double() * ref.cum.back()));
    }
    total_draws += shape.draws;

    // Variates on and beside every cumulative weight (every 97th on the
    // large table), plus both ends of the range.
    const double total = ref.cum.back();
    const std::size_t stride = shape.n > 100000 ? 97 : 1;
    for (std::size_t i = 0; i < shape.n; i += stride) {
      for (const double u : {ref.cum[i], std::nextafter(ref.cum[i], 0.0),
                             std::nextafter(ref.cum[i], 2.0 * total)}) {
        if (u > total) continue;
        ASSERT_EQ(zipf.rank_at(u), ref.rank_at(u)) << "u " << u;
      }
    }
    EXPECT_EQ(zipf.rank_at(0.0), ref.rank_at(0.0));
    EXPECT_EQ(zipf.rank_at(total), shape.n - 1);
    EXPECT_EQ(zipf.rank_at(-1.0), 0u);
    EXPECT_EQ(zipf.rank_at(4.0 * total), shape.n - 1);
  }
  EXPECT_GE(total_draws, 1 << 20);
  // alpha = 8 really does saturate: the tail adds nothing to the sum.
  const ReferenceZipf saturated(4097, 8.0);
  EXPECT_EQ(saturated.cum[4095], saturated.cum[4096]);
}

// A batch resolves every variate exactly as a lone rank_at does, at every
// batch length around the serving client's old 64-draw chunk and on and
// beside every cumulative weight, on the shapes above.
TEST(Serving, ZipfBatchMatchesSingleDraws) {
  const std::pair<std::size_t, double> shapes[] = {
      {1, 0.9}, {1001, 1.0}, {4097, 8.0}, {37, 0.5},
      {std::size_t{1} << 20, 0.9},
  };
  auto expect_batch_matches = [](const ZipfGenerator& zipf,
                                 const std::vector<double>& u) {
    std::vector<std::uint64_t> got(u.size(), ~std::uint64_t{0});
    zipf.ranks_at(u.data(), got.data(), u.size());
    for (std::size_t j = 0; j < u.size(); ++j) {
      ASSERT_EQ(got[j], zipf.rank_at(u[j])) << "j " << j << " u " << u[j];
    }
  };
  for (const auto& [n, alpha] : shapes) {
    SCOPED_TRACE("n " + std::to_string(n) + " alpha " +
                 std::to_string(alpha));
    const ZipfGenerator zipf(n, alpha);
    const ReferenceZipf ref(n, alpha);
    const double total = ref.cum.back();
    ASSERT_EQ(zipf.total_weight(), total);

    sim::Rng rng(0xba7cULL + n);
    for (const std::size_t len : {0, 1, 63, 64, 65, 1000}) {
      std::vector<double> u(len);
      for (double& x : u) x = rng.next_double() * total;
      expect_batch_matches(zipf, u);
    }

    std::vector<double> edges = {0.0, total, -1.0, 4.0 * total};
    const std::size_t stride = n > 100000 ? 97 : 1;
    for (std::size_t i = 0; i < n; i += stride) {
      edges.push_back(ref.cum[i]);
      edges.push_back(std::nextafter(ref.cum[i], 0.0));
      edges.push_back(std::nextafter(ref.cum[i], 2.0 * total));
    }
    expect_batch_matches(zipf, edges);
  }

  const ZipfGenerator uniform(16, 0.0);
  const double u = 0.5;
  std::uint64_t out = 0;
  EXPECT_THROW(uniform.ranks_at(&u, &out, 1), std::logic_error);
  EXPECT_THROW(uniform.rank_at(u), std::logic_error);
  EXPECT_THROW(uniform.total_weight(), std::logic_error);
}

// Generators of one shape share a table built by whichever thread gets
// there first; draws must not depend on which one did, or on a table
// being evicted while another thread builds.
TEST(Serving, SharedZipfTablesAreThreadSafe) {
  constexpr int kThreads = 4;
  constexpr int kDraws = 1 << 15;
  // Shapes used by no other test, so the threads race to build them.
  auto own_shape = [](int t) {
    return std::pair<std::size_t, double>(3001 + t, 1.0625 + t / 16.0);
  };
  auto digest = [](std::size_t n, double alpha, std::uint64_t seed) {
    const ZipfGenerator zipf(n, alpha);
    sim::Rng rng(seed);
    WordHash hash;
    for (int i = 0; i < kDraws; ++i) hash.add(zipf.next(rng));
    return hash.h;
  };
  std::array<std::uint64_t, kThreads> common{};
  std::array<std::uint64_t, kThreads> own{};
  {
    std::latch go(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        go.arrive_and_wait();
        common[t] = digest(50021, 0.8125, 99);
        const auto [n, alpha] = own_shape(t);
        own[t] = digest(n, alpha, 100 + t);
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(common[t], digest(50021, 0.8125, 99));
    const auto [n, alpha] = own_shape(t);
    EXPECT_EQ(own[t], digest(n, alpha, 100 + t));
  }
  EXPECT_LE(ZipfGenerator::shared_tables(), ZipfGenerator::kMaxSharedTables);
}

TEST(Serving, SharedZipfMemoStaysBounded) {
  // TortureSweep draws a fresh alpha for every job.
  sim::Rng r(0xa1fULL);
  for (int i = 0; i < 64; ++i) {
    const std::size_t n = 256 + r.next_below(1793);
    const double alpha = 1.25 * r.next_double();
    const ZipfGenerator zipf(n, alpha);
    const std::size_t held = ZipfGenerator::shared_tables();
    EXPECT_LE(held, ZipfGenerator::kMaxSharedTables);
    const ZipfGenerator again(n, alpha);  // same shape: no new entry
    EXPECT_EQ(ZipfGenerator::shared_tables(), held);
  }
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
  bad.update_fraction = std::nan("");
  EXPECT_THROW(ServingJob(bad, {0, 1}, {2, 3}), std::invalid_argument);
  bad = s;
  bad.key_space = 0;
  EXPECT_THROW(ServingJob(bad, {0, 1}, {2, 3}), std::invalid_argument);
  bad = s;
  bad.zipf_alpha = -1.0;
  EXPECT_THROW(ServingJob(bad, {0, 1}, {2, 3}), std::invalid_argument);
  bad = s;
  bad.zipf_alpha = std::nan("");
  EXPECT_THROW(ServingJob(bad, {0, 1}, {2, 3}), std::invalid_argument);
  bad = s;
  bad.key_space = (std::size_t{1} << 32) + 1;
  bad.zipf_alpha = 0.9;
  EXPECT_THROW(ServingJob(bad, {0, 1}, {2, 3}), std::invalid_argument);

  // Machines outside the fabric are rejected at attach time.
  core::TenantFabricSpec fspec;
  fspec.n_machines = 3;
  core::Fabric fabric(fspec);
  ServingJob job(s, {0, 1}, {2, 9});
  EXPECT_THROW(fabric.add_custom_job({"serve"}, job), std::invalid_argument);
}

// A custom job whose attach throws adds no tenant: a training job added
// after it gets tenant index 0, keeps the single-tenant path, and the
// fabric reports exactly what that job alone reports.
TEST(Serving, FailedCustomJobAddLeavesNoTenant) {
  core::ServeSpec s;
  s.n_clients = 2;
  s.n_shards = 2;
  auto run = [&s](bool failed_add) {
    ServingJob serving(s, {0, 1}, {2, 99});
    core::TenantFabricSpec fspec;
    fspec.n_machines = 8;
    fspec.topology = core::TopologySpec::two_tier_racks(2, 8.0);
    core::Fabric fabric(fspec);
    if (failed_add) {
      EXPECT_THROW(fabric.add_custom_job({"serve"}, serving),
                   std::invalid_argument);
    }
    core::JobSpec job;
    job.name = "trainer";
    job.config.deterministic_reduction = true;
    job.worker_machines = {0, 1, 4, 5};
    job.aggregator_machines = {3};
    auto tensors = make_steps(2, 4, 16384, 0.5, 11);
    EXPECT_EQ(fabric.add_job(job, tensors), 0);
    fabric.run();
    EXPECT_EQ(fabric.network().n_tenants(), 1u);
    std::ostringstream os;
    fabric.report().write_json(os);
    return os.str();
  };
  EXPECT_EQ(run(true), run(false));
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

// --- serving-tier pins ----------------------------------------------------

// The key stream is part of every serving output, so these pins hold the
// first 2^17 draws of four shapes fixed: a large and a small table, an
// alpha whose running sum saturates, and the uniform path. A faster table
// or search must reproduce every draw.
TEST(Serving, ZipfDrawStreamsMatchGoldens) {
  struct Shape {
    std::size_t n;
    double alpha;
    std::uint64_t fnv;
  };
  const Shape shapes[] = {
      {std::size_t{1} << 20, 0.9, 0x8529cfaa3aaa0ddaULL},
      {1000, 1.1, 0x192a0bc04616ad8aULL},
      {7, 8.0, 0x9da920cb79ab2086ULL},
      {128, 0.0, 0x0618db222f454838ULL},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("n " + std::to_string(shape.n) + " alpha " +
                 std::to_string(shape.alpha));
    const ZipfGenerator zipf(shape.n, shape.alpha);
    sim::Rng rng(0x21bfULL);
    WordHash hash;
    for (int i = 0; i < (1 << 17); ++i) hash.add(zipf.next(rng));
    EXPECT_EQ(hash.h, shape.fnv);
  }
}

// Digest of a serving run: issued requests, cache hits, every latency
// lane's histogram bins and the finish time.
std::uint64_t serve_digest(const telemetry::ServeReport& r) {
  WordHash hash;
  hash.add(r.requests_issued);
  hash.add(r.cache_hits);
  for (const auto& lane : r.lanes) {
    for (const std::uint64_t c : lane.latency_ns.counts) hash.add(c);
  }
  hash.add(static_cast<std::uint64_t>(r.finish));
  return hash.h;
}

TEST(Serving, ServeReportsMatchGoldens) {
  struct Pin {
    core::ServeSpec::CachePolicy policy;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {core::ServeSpec::CachePolicy::kLru, 0xd52142ca7e56ae8dULL},
      {core::ServeSpec::CachePolicy::kLfu, 0x2c49ca0dcb0e1ac2ULL},
  };
  for (const Pin& pin : pins) {
    Scenario sc = base_scenario();
    sc.co_trainer = true;
    sc.sspec.cache_policy = pin.policy;
    sc.sspec.key_space = std::size_t{1} << 14;
    sc.sspec.requests_per_client = 300;
    sc.sspec.batch_window = sim::microseconds(2);
    const Outcome out = run_scenario(sc);
    ASSERT_TRUE(out.trainer_verified);
    std::uint64_t evictions = 0;
    for (const auto& s : out.report.shards) evictions += s.cache_evictions;
    EXPECT_GT(out.report.cache_hits, 0u);
    EXPECT_GT(evictions, 0u);
    EXPECT_EQ(serve_digest(out.report), pin.digest);
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
    check_lookup_lane(first.report);
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
