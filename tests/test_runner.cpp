// Tests for the parallel sweep runner: ordered commits under adversarial
// scheduling, the thread count, exception propagation, and the headline
// guarantee — a parallel sweep's RunReport array is bit-identical to the
// serial one for a Fig. 4-shaped grid, and every baseline collective gives
// the same bits on any number of threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <latch>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "baselines/zoo.h"
#include "core/algorithm.h"
#include "core/engine.h"
#include "runner/sweep.h"
#include "sim/rng.h"
#include "telemetry/report.h"
#include "tensor/generators.h"

namespace omr::runner {
namespace {

// ---------------------------------------------------------------------------
// parallel_for_each ordering
// ---------------------------------------------------------------------------

TEST(ParallelForEach, CommitsInSubmissionOrderUnderRandomizedScheduling) {
  // Tasks finish in a scrambled order (each sleeps a pseudo-random time);
  // commits must still arrive 0, 1, 2, ... on the calling thread.
  const std::size_t n = 64;
  sim::Rng rng(11);
  std::vector<int> delays_us;
  for (std::size_t i = 0; i < n; ++i) {
    delays_us.push_back(static_cast<int>(rng.next_below(500)));
  }
  std::vector<std::size_t> commit_order;
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for_each<std::size_t>(
      n,
      [&delays_us](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(delays_us[i]));
        return i * i;
      },
      [&](std::size_t i, std::size_t&& v) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(v, i * i);
        commit_order.push_back(i);
      },
      /*jobs=*/4);
  ASSERT_EQ(commit_order.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(commit_order[i], i);
}

TEST(ParallelForEach, SerialPathMatchesParallelResults) {
  const std::size_t n = 40;
  auto task = [](std::size_t i) { return static_cast<double>(i) * 1.5; };
  std::vector<double> serial, parallel;
  parallel_for_each<double>(
      n, task, [&](std::size_t, double&& v) { serial.push_back(v); },
      /*jobs=*/1);
  parallel_for_each<double>(
      n, task, [&](std::size_t, double&& v) { parallel.push_back(v); },
      /*jobs=*/8);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForEach, ZeroTasksIsANoOp) {
  int commits = 0;
  parallel_for_each<int>(
      0, [](std::size_t) { return 0; },
      [&](std::size_t, int&&) { ++commits; }, /*jobs=*/4);
  EXPECT_EQ(commits, 0);
}

// ---------------------------------------------------------------------------
// Thread count
// ---------------------------------------------------------------------------

// Threads of this process, from /proc/self/task; 0 where that is absent.
std::size_t process_threads() {
  std::error_code ec;
  std::size_t count = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++count;
  }
  return count;
}

TEST(ParallelForEach, StartsNoMoreThreadsThanTasks) {
  // jobs = 64 over 3 tasks starts 3 threads, not 64. The latch holds each
  // task until all three run at once, so they run on 3 distinct threads,
  // none of them the caller's: the caller only commits. The baseline is
  // taken after one parallel call, so a helper thread a runtime starts on
  // first thread creation (ThreadSanitizer's) is counted in it.
  parallel_for_each<int>(
      2, [](std::size_t) { return 0; }, [](std::size_t, int&&) {},
      /*jobs=*/2);
  const std::size_t before = process_threads();
  const std::thread::id caller = std::this_thread::get_id();
  std::latch all_running(3);
  struct Seen {
    std::thread::id id;
    std::size_t threads;
  };
  std::vector<Seen> seen;
  parallel_for_each<Seen>(
      3,
      [&all_running](std::size_t) {
        all_running.arrive_and_wait();
        return Seen{std::this_thread::get_id(), process_threads()};
      },
      [&seen](std::size_t, Seen&& s) { seen.push_back(s); },
      /*jobs=*/64);
  ASSERT_EQ(seen.size(), 3u);
  std::set<std::thread::id> ids;
  for (const Seen& s : seen) {
    ids.insert(s.id);
    if (before > 0) {
      EXPECT_LE(s.threads, before + 3);
    }
  }
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids.count(caller), 0u);
}

// ---------------------------------------------------------------------------
// Exception propagation
// ---------------------------------------------------------------------------

TEST(ParallelForEach, PropagatesTaskExceptionToCaller) {
  EXPECT_THROW(
      parallel_for_each<int>(
          16,
          [](std::size_t i) {
            if (i == 5) throw std::runtime_error("task 5 failed");
            return static_cast<int>(i);
          },
          [](std::size_t, int&&) {}, /*jobs=*/4),
      std::runtime_error);
}

TEST(ParallelForEach, LowestIndexExceptionWinsAndCommitsStopBeforeIt) {
  // Indices 3 and 9 both throw; the rethrown error must be index 3's (the
  // serial program would have hit it first) and no commit at or past 3
  // may have run.
  std::vector<std::size_t> committed;
  try {
    parallel_for_each<int>(
        16,
        [](std::size_t i) {
          if (i == 3) throw std::runtime_error("boom-3");
          if (i == 9) throw std::runtime_error("boom-9");
          return static_cast<int>(i);
        },
        [&](std::size_t i, int&&) { committed.push_back(i); },
        /*jobs=*/8);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom-3");
  }
  EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParallelForEach, SerialPathPropagatesExceptions) {
  EXPECT_THROW(parallel_for_each<int>(
                   4,
                   [](std::size_t i) -> int {
                     if (i == 2) throw std::logic_error("serial");
                     return 0;
                   },
                   [](std::size_t, int&&) {}, /*jobs=*/1),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// default_jobs
// ---------------------------------------------------------------------------

TEST(DefaultJobs, IsAtLeastOne) { EXPECT_GE(default_jobs(), 1u); }

// ---------------------------------------------------------------------------
// Bit-identical reports: a Fig. 4-shaped grid, serial vs parallel
// ---------------------------------------------------------------------------

telemetry::RunReport grid_cell(std::size_t workers, double sparsity,
                               std::uint64_t seed) {
  sim::Rng rng(seed);
  auto tensors = tensor::make_multi_worker(workers, 16 * 256, 16, sparsity,
                                           tensor::OverlapMode::kRandom, rng);
  core::Config cfg;
  cfg.block_size = 16;
  cfg.packet_elements = 64;
  cfg.num_streams = 8;
  core::ClusterSpec cluster = core::ClusterSpec::dedicated(2);
  cluster.fabric.seed = seed;
  cluster.telemetry.enabled = true;
  cluster.telemetry.trace_events = false;
  char label[48];
  std::snprintf(label, sizeof(label), "grid/w%zu/s%.2f", workers, sparsity);
  return core::run_allreduce_report(tensors, cfg, cluster, /*verify=*/true,
                                    label);
}

TEST(ParallelForEach, Fig04ShapedGridIsBitIdenticalToSerial) {
  struct Cell {
    std::size_t workers;
    double sparsity;
    std::uint64_t seed;
  };
  std::vector<Cell> grid;
  for (std::size_t workers : {2u, 4u}) {
    std::uint64_t seed = 2;
    for (double s : {0.0, 0.6, 0.9, 0.99}) {
      grid.push_back({workers, s, seed++});
    }
  }

  auto run_grid = [&grid](std::size_t jobs) {
    std::vector<telemetry::RunReport> reports;
    parallel_for_each<telemetry::RunReport>(
        grid.size(),
        [&grid](std::size_t i) {
          const Cell& c = grid[i];
          return grid_cell(c.workers, c.sparsity, c.seed);
        },
        [&reports](std::size_t, telemetry::RunReport&& r) {
          reports.push_back(std::move(r));
        },
        jobs);
    std::ostringstream json;
    telemetry::write_report_array(reports, json);
    return json.str();
  };

  const std::string serial = run_grid(1);
  const std::string parallel = run_grid(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// Baselines across threads: every zoo algorithm, serial vs parallel
// ---------------------------------------------------------------------------

struct ZooOutcome {
  std::vector<std::uint32_t> result_bits;  // every worker's tensor, in order
  sim::Time completion_time = 0;
  std::vector<std::uint64_t> worker_bytes;
  bool verified = false;
};

ZooOutcome zoo_cell(const std::string& algo, std::size_t workers,
                    double sparsity) {
  sim::Rng rng(31 * workers + static_cast<std::uint64_t>(sparsity * 100));
  auto tensors = tensor::make_multi_worker(workers, 4099, 256, sparsity,
                                           tensor::OverlapMode::kRandom, rng);
  const core::RunStats st = core::run_collective(
      algo, tensors, {}, core::ClusterSpec::dedicated(2));
  ZooOutcome out;
  for (const auto& t : tensors) {
    const std::size_t at = out.result_bits.size();
    out.result_bits.resize(at + t.size());
    std::memcpy(out.result_bits.data() + at, t.values().data(),
                t.size() * sizeof(float));
  }
  out.completion_time = st.completion_time;
  out.worker_bytes = st.worker_data_bytes;
  out.verified = st.verified;
  return out;
}

TEST(ParallelForEach, EveryZooAlgorithmIsBitIdenticalAcrossJobs) {
  // Figure sweeps run the baselines on OMR_JOBS threads: each run must own
  // all of its state, so the thread count never shows in an output.
  baselines::register_zoo();
  struct Cell {
    std::string algo;
    std::size_t workers;
    double sparsity;
  };
  std::vector<Cell> grid;
  for (const char* algo :
       {"ring", "agsparse", "agsparse_gloo", "sparcml", "sparcml_ssar",
        "sparcml_dsar", "ps", "ps_sparse", "parallax", "oktopk", "sketch"}) {
    grid.push_back({algo, 4, 0.9});
    grid.push_back({algo, 8, 0.5});
  }

  auto run_grid = [&grid](std::size_t jobs) {
    std::vector<ZooOutcome> outcomes;
    parallel_for_each<ZooOutcome>(
        grid.size(),
        [&grid](std::size_t i) {
          return zoo_cell(grid[i].algo, grid[i].workers, grid[i].sparsity);
        },
        [&outcomes](std::size_t, ZooOutcome&& o) {
          outcomes.push_back(std::move(o));
        },
        jobs);
    return outcomes;
  };

  const std::vector<ZooOutcome> serial = run_grid(1);
  const std::vector<ZooOutcome> parallel = run_grid(4);
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::string cell =
        grid[i].algo + " N=" + std::to_string(grid[i].workers);
    EXPECT_TRUE(serial[i].verified) << cell;
    EXPECT_GT(serial[i].completion_time, 0) << cell;
    EXPECT_EQ(serial[i].result_bits, parallel[i].result_bits) << cell;
    EXPECT_EQ(serial[i].completion_time, parallel[i].completion_time) << cell;
    EXPECT_EQ(serial[i].worker_bytes, parallel[i].worker_bytes) << cell;
  }
}

}  // namespace
}  // namespace omr::runner
