// Host wall-clock harness for the simulator hot paths: fixed
// deterministic workloads, from single kernels ("micro" rows: the event
// queue, the bitmap, slot reduction, COO conversion, the compressors) to
// whole collectives ("e2e" rows). It is the repo's one host-timing
// harness. It writes a JSON result set (see docs/PERFORMANCE.md), which
// `tools/bench_record.py pairs` runs in alternating pairs against a
// baseline build of this harness and records into BENCH_hotpaths.json.
//
// Usage:
//   bench_hotpath_wallclock [--smoke] [--out PATH] [--label NAME]
//                           [--only NAME]
//
// --smoke shrinks workloads to CI scale (the `perf_smoke` ctest label).
// --only runs a single benchmark (useful under a profiler).
// The zoo_* rows are sweep_zoo / fig06 cells (8 workers, 1M elements)
// reduced by the sparse-sweep baselines through the registry.
// Simulated results (completion_time, rounds, messages) are recorded next
// to each wall-clock number: a perf PR must leave them bit-identical.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/zoo.h"
#include "compress/compressors.h"
#include "core/algorithm.h"
#include "core/cluster.h"
#include "core/engine.h"
#include "core/reduce_kernels.h"
#include "core/sparse_kv.h"
#include "runner/sweep.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "tensor/blocks.h"
#include "tensor/coo.h"
#include "tensor/generators.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Result {
  std::string name;
  std::string kind;  // "micro" | "e2e"
  double wall_ms = 0.0;        // median over repeats
  double work_units = 0.0;     // events, blocks, elements... (per repeat)
  std::string unit;
  // Simulated outputs (e2e only) — must be bit-identical across perf PRs.
  bool has_sim = false;
  std::uint64_t sim_completion_ns = 0;
  std::uint64_t sim_total_messages = 0;
  std::uint64_t sim_rounds = 0;
  std::uint64_t sim_retransmissions = 0;

  double units_per_sec() const {
    return wall_ms > 0.0 ? work_units / (wall_ms / 1e3) : 0.0;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// --- helpers -----------------------------------------------------------------

/// Median over `repeats` of the time `inner` back-to-back calls of `body`
/// take.
template <typename Body>
double median_ms(int repeats, int inner, Body&& body) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) body();
    times.push_back(ms_since(t0));
  }
  return median(times);
}

Result micro(const char* name, double wall_ms, double work_units,
             const char* unit) {
  Result res;
  res.name = name;
  res.kind = "micro";
  res.wall_ms = wall_ms;
  res.work_units = work_units;
  res.unit = unit;
  return res;
}

omr::tensor::DenseTensor normal_tensor(std::size_t n, std::uint64_t seed) {
  omr::sim::Rng rng(seed);
  omr::tensor::DenseTensor g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = static_cast<float>(rng.next_normal());
  }
  return g;
}

// --- event queue: self-rescheduling handler churn --------------------------

struct Churner {
  omr::sim::Simulator* s;
  omr::sim::Rng rng;
  std::uint64_t remaining = 0;
  // Stand-in for the message a delivery event carries: the callback must
  // capture a shared_ptr plus endpoint ids, exactly like Network::deliver's
  // scheduled lambda. This sizes the capture realistically (~32 bytes) —
  // a callback type with a small inline buffer pays a heap allocation per
  // event here, the simulator's dominant steady-state cost.
  std::shared_ptr<std::uint64_t> payload = std::make_shared<std::uint64_t>(0);
  void tick(std::uint32_t src, std::uint32_t dst) {
    if (remaining == 0) return;
    --remaining;
    *payload += src + dst;
    s->schedule_after(
        1 + static_cast<omr::sim::Time>(rng.next_below(997)),
        [this, src, dst, msg = payload] { tick(src + 1, dst + 1); (void)msg; });
  }
};

Result bench_event_queue_churn(bool smoke, int repeats) {
  const std::size_t kStreams = 512;
  const std::uint64_t kEventsPer = smoke ? 200 : 4000;
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    omr::sim::Simulator sim;
    std::vector<Churner> churners(kStreams);
    omr::sim::Rng seed_rng(42);
    for (auto& c : churners) {
      c.s = &sim;
      c.rng = seed_rng.fork();
      c.remaining = kEventsPer;
    }
    const auto t0 = Clock::now();
    for (auto& c : churners) c.tick(0, 1);
    sim.run();
    times.push_back(ms_since(t0));
  }
  return micro("event_queue_churn", median(times), static_cast<double>(kStreams * kEventsPer), "events");
}

// --- event queue: the worker timer pattern (arm, usually cancel) -----------

struct TimerStream {
  omr::sim::Simulator* s;
  omr::sim::Rng rng;
  std::uint64_t remaining = 0;
  omr::sim::EventId timer = 0;
  void on_data() {
    if (timer != 0) {
      s->cancel(timer);
      timer = 0;
    }
    if (remaining == 0) return;
    --remaining;
    // Timeout is ~100x the round gap, as in the real protocol config: the
    // timer almost always dies cancelled, far from the top of the heap.
    timer = s->schedule_after(10000, [this] { timer = 0; });
    s->schedule_after(50 + static_cast<omr::sim::Time>(rng.next_below(101)),
                      [this] { on_data(); });
  }
};

Result bench_event_queue_timer_cancel(bool smoke, int repeats) {
  const std::size_t kStreams = 256;
  const std::uint64_t kRoundsPer = smoke ? 200 : 4000;
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    omr::sim::Simulator sim;
    std::vector<TimerStream> streams(kStreams);
    omr::sim::Rng seed_rng(7);
    for (auto& st : streams) {
      st.s = &sim;
      st.rng = seed_rng.fork();
      st.remaining = kRoundsPer;
    }
    const auto t0 = Clock::now();
    for (auto& st : streams) st.on_data();
    sim.run();
    times.push_back(ms_since(t0));
  }
  return micro("event_queue_timer_cancel", median(times), static_cast<double>(kStreams * kRoundsPer), "rounds");
}

// --- event queue: far-horizon traffic in the omni_twotier shape -----------

struct FarStream {
  omr::sim::Simulator* s;
  omr::sim::Rng rng;
  std::uint64_t remaining = 0;
  omr::sim::EventId timer = 0;
  std::shared_ptr<std::uint64_t> payload = std::make_shared<std::uint64_t>(0);
  void on_event() {
    // Each event cancels the stream's pending 2 ms timer and re-arms it,
    // like Algorithm 2's per-slot retransmission timer.
    s->cancel(timer);
    timer = 0;
    if (remaining == 0) return;
    --remaining;
    timer = s->schedule_after(2'000'000, [this] { timer = 0; });
    // Log-uniform over [16 us, 8 ms]: the delays a 64-worker two-tier run
    // schedules past the 16 us fine window (8 ms / 16384 ns = 488.28).
    const double delay =
        16384.0 * std::exp(rng.next_double() * std::log(488.28125));
    s->schedule_after(static_cast<omr::sim::Time>(delay),
                      [this, msg = payload] { on_event(); (void)msg; });
  }
};

Result bench_event_queue_far_horizon(bool smoke, int repeats) {
  const std::size_t kStreams = 64;
  const std::size_t kInFlight = 256;  // per stream: ~16K pending in total
  const std::uint64_t kEventsPer = smoke ? 2000 : 40000;
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    omr::sim::Simulator sim;
    std::vector<FarStream> streams(kStreams);
    omr::sim::Rng seed_rng(19);
    for (auto& st : streams) {
      st.s = &sim;
      st.rng = seed_rng.fork();
      st.remaining = kEventsPer;
    }
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kInFlight; ++k) {
      for (auto& st : streams) st.on_event();
    }
    sim.run();
    times.push_back(ms_since(t0));
  }
  return micro("event_queue_far_horizon", median(times), static_cast<double>(kStreams * kEventsPer), "events");
}

// --- event queue: one simulator reused across drained Session steps -------

/// One Session step's event pattern at omni_twotier's shape: all 64 x 256
/// (worker, stream) sends fire at the step's start, each arms a 1 ms
/// retransmission timer, and the delivery that answers it (1-800 us later)
/// cancels the timer. Deliveries free slots in a scattered order, and the
/// step drains with every cancelled timer still a dead coarse-level entry.
struct SessionStep {
  static constexpr std::uint32_t kSends = 64 * 256;
  omr::sim::Simulator* s;
  omr::sim::Rng rng{23};
  std::vector<omr::sim::EventId> timers = std::vector<omr::sim::EventId>(kSends);
  std::shared_ptr<std::uint64_t> payload = std::make_shared<std::uint64_t>(0);
  std::uint64_t expired = 0;
  void send(std::uint32_t i) {
    timers[i] = s->schedule_after(1'000'000, [this] { ++expired; });
    const auto delay =
        1000 + static_cast<omr::sim::Time>(rng.next_below(799'000));
    s->schedule_after(delay, [this, i, msg = payload] {
      s->cancel(timers[i]);
      *msg += i;
    });
  }
  void run() {
    const omr::sim::Time start = s->now();
    for (std::uint32_t i = 0; i < kSends; ++i) {
      s->schedule_at(start, [this, i] { send(i); });
    }
    s->run();
  }
};

Result bench_event_queue_drain_reuse(bool smoke, int repeats) {
  const int kSteps = smoke ? 2 : 24;
  std::vector<double> times;
  omr::sim::Time end = 0;
  std::uint64_t events = 0;
  std::uint64_t expired = 0;
  for (int r = 0; r < repeats; ++r) {
    omr::sim::Simulator sim;
    SessionStep step{&sim};
    const auto t0 = Clock::now();
    for (int k = 0; k < kSteps; ++k) step.run();
    times.push_back(ms_since(t0));
    end = sim.now();
    events = sim.events_executed();
    expired = step.expired;
  }
  Result res = micro("event_queue_drain_reuse", median(times),
                     static_cast<double>(kSteps) * SessionStep::kSends,
                     "sends");
  // The queue's own simulated outputs: the final clock and event count.
  res.has_sim = true;
  res.sim_completion_ns = static_cast<std::uint64_t>(end);
  res.sim_total_messages = events;
  res.sim_rounds = static_cast<std::uint64_t>(kSteps);
  res.sim_retransmissions = expired;
  return res;
}

// --- bitmap: build + scans -------------------------------------------------

Result bench_bitmap_build(bool smoke, int repeats) {
  const std::size_t n = smoke ? (1u << 18) : (1u << 22);
  omr::sim::Rng rng(42);
  const auto t = omr::tensor::make_block_sparse(n, 256, 0.9, rng);
  const int inner = smoke ? 4 : 16;
  std::size_t sink = 0;
  const double ms = median_ms(repeats, inner, [&] {
    sink += omr::tensor::BlockBitmap(t.span(), 256).nonzero_count();
  });
  if (sink == 0) std::fprintf(stderr, "unexpected all-zero input\n");
  return micro("bitmap_build", ms, static_cast<double>(n) * inner,
               "elements");
}

Result bench_bitmap_scan(const char* name, std::size_t stride, double sparsity,
                         bool smoke, int repeats) {
  const std::size_t n = smoke ? (1u << 18) : (1u << 22);
  omr::sim::Rng rng(42);
  const auto t = omr::tensor::make_block_sparse(n, 256, sparsity, rng);
  omr::tensor::BlockBitmap bm(t.span(), 256);
  const int inner = smoke ? 16 : 256;
  std::size_t sink = 0;
  const double ms = median_ms(repeats, inner, [&] {
    for (std::size_t col = 0; col < stride; ++col) {
      omr::tensor::BlockIndex b = static_cast<omr::tensor::BlockIndex>(col) -
                                  static_cast<omr::tensor::BlockIndex>(stride);
      while (true) {
        b = bm.next_nonzero_in_column(b + static_cast<omr::tensor::BlockIndex>(stride),
                                      col, stride);
        if (b == omr::tensor::kNoBlock) break;
        ++sink;
      }
    }
  });
  if (sink == 0) std::fprintf(stderr, "scan found no blocks\n");
  return micro(name, ms, static_cast<double>(bm.size()) * inner, "blocks");
}

// --- kernels outside the event loop ---------------------------------------

/// The aggregator's slot reduction: one 4096-element slot folded into
/// another by the kernel Aggregator selects per (op, arithmetic).
Result bench_reduce_kernel(const char* name, omr::core::ReduceOp op,
                           bool fixed_point, bool smoke, int repeats) {
  const auto kernel = omr::core::kernels::select(op, fixed_point);
  const auto src = normal_tensor(4096, 3);
  auto dst = normal_tensor(4096, 4);
  // The fixed-point kernel rounds every addend: far fewer calls per row.
  const int inner = (fixed_point ? 500 : 20000) / (smoke ? 20 : 1);
  const double ms = median_ms(repeats, inner, [&] {
    kernel(dst.span().data(), src.span().data(), src.size());
  });
  if (!std::isfinite(dst[0])) std::fprintf(stderr, "non-finite slot\n");
  return micro(name, ms, static_cast<double>(src.size()) * inner,
               "elements");
}

Result bench_dense_to_coo(bool smoke, int repeats) {
  const std::size_t n = smoke ? (1u << 16) : (1u << 20);
  omr::sim::Rng rng(42);
  const auto t = omr::tensor::make_block_sparse(n, 256, 0.95, rng);
  const int inner = smoke ? 4 : 32;
  std::size_t sink = 0;
  const double ms = median_ms(repeats, inner, [&] {
    sink += omr::tensor::dense_to_coo(t).nnz();
  });
  if (sink == 0) std::fprintf(stderr, "unexpected all-zero input\n");
  return micro("dense_to_coo", ms, static_cast<double>(n) * inner,
               "elements");
}

Result bench_block_top_k(bool smoke, int repeats) {
  const std::size_t n = smoke ? (1u << 16) : (1u << 20);
  const auto g = normal_tensor(n, 1);
  const std::size_t k = omr::tensor::num_blocks(n, 256) / 100;
  const int inner = smoke ? 2 : 16;
  std::size_t sink = 0;
  const double ms = median_ms(repeats, inner, [&] {
    sink += omr::compress::block_top_k(g, 256, k).nnz();
  });
  if (sink == 0) std::fprintf(stderr, "top-k kept nothing\n");
  return micro("block_top_k", ms, static_cast<double>(n) * inner,
               "elements");
}

/// Trainer steps of error feedback around Block Top-k (10% of blocks).
Result bench_error_feedback_step(bool smoke, int repeats) {
  const std::size_t n = smoke ? (1u << 14) : (1u << 18);
  const auto g = normal_tensor(n, 2);
  const std::size_t k = omr::tensor::num_blocks(n, 256) / 10;
  const omr::compress::Compressor top_k =
      [k](const omr::tensor::DenseTensor& x) {
        return omr::compress::block_top_k(x, 256, k);
      };
  omr::compress::ErrorFeedback ef(n);
  const int inner = smoke ? 4 : 32;
  std::size_t sink = 0;
  const double ms = median_ms(repeats, inner, [&] {
    sink += ef.step(g, top_k).nnz();
  });
  if (sink == 0) std::fprintf(stderr, "error feedback sent nothing\n");
  return micro("error_feedback_step", ms, static_cast<double>(n) * inner,
               "elements");
}

// --- sparse KV allreduce (Algorithm 3 accumulator) -------------------------

omr::tensor::CooTensor make_coo(std::size_t dim, std::size_t nnz,
                                omr::sim::Rng& rng) {
  omr::tensor::CooTensor t;
  t.dim = dim;
  t.keys.reserve(nnz);
  t.values.reserve(nnz);
  const std::size_t step = dim / nnz;
  for (std::size_t i = 0; i < nnz; ++i) {
    t.keys.push_back(static_cast<std::int32_t>(i * step + rng.next_below(step)));
    t.values.push_back(rng.next_float(-1.0f, 1.0f));
  }
  return t;
}

Result bench_kv_allreduce(bool smoke, int repeats) {
  const std::size_t dim = smoke ? (1u << 18) : (1u << 22);
  const std::size_t nnz = dim / 16;
  const std::size_t kWorkers = 8;
  omr::sim::Rng rng(42);
  std::vector<omr::tensor::CooTensor> inputs;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    inputs.push_back(make_coo(dim, nnz, rng));
  }
  omr::core::FabricConfig fabric;
  std::vector<double> times;
  std::uint64_t rounds = 0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    const auto stats =
        omr::core::run_sparse_allreduce(inputs, fabric, 256, 4);
    times.push_back(ms_since(t0));
    rounds = stats.rounds;
  }
  Result res;
  res.name = "kv_allreduce";
  res.kind = "e2e";
  res.wall_ms = median(times);
  res.work_units = static_cast<double>(nnz * kWorkers);
  res.unit = "pairs";
  res.has_sim = true;
  res.sim_rounds = rounds;
  return res;
}

// --- fig04-style dense-engine allreduce ------------------------------------

Result bench_e2e_allreduce(const char* name, omr::core::Transport transport,
                           double loss_rate, bool smoke, int repeats) {
  const std::size_t n = smoke ? (1u << 18) : (1u << 21);
  const std::size_t kWorkers = 8;
  const auto cfg = omr::core::Config::for_transport(transport);
  omr::core::FabricConfig fabric;
  fabric.loss_rate = loss_rate;
  fabric.seed = 7;
  const auto cluster = omr::core::ClusterSpec::dedicated(kWorkers, fabric);
  std::vector<double> times;
  omr::core::RunStats stats;
  for (int r = 0; r < repeats; ++r) {
    omr::sim::Rng rng(42);  // identical inputs every repeat
    auto tensors = omr::tensor::make_multi_worker(
        kWorkers, n, cfg.block_size, 0.9, omr::tensor::OverlapMode::kRandom,
        rng);
    const auto t0 = Clock::now();
    stats = omr::core::run_allreduce(tensors, cfg, cluster, /*verify=*/false);
    times.push_back(ms_since(t0));
  }
  Result res;
  res.name = name;
  res.kind = "e2e";
  res.wall_ms = median(times);
  res.work_units = static_cast<double>(n * kWorkers);
  res.unit = "elements";
  res.has_sim = true;
  res.sim_completion_ns = static_cast<std::uint64_t>(stats.completion_time);
  res.sim_total_messages = stats.total_messages;
  res.sim_rounds = stats.rounds;
  res.sim_retransmissions = stats.retransmissions;
  return res;
}

// --- sparse-sweep baselines through the registry ---------------------------

/// One sweep_zoo / fig06 cell: 8 colocated workers at 10 Gbps, random
/// block overlap, reduced by a registered baseline.
Result bench_zoo(const char* name, const char* algo, double sparsity,
                 bool smoke, int repeats) {
  omr::baselines::register_zoo();
  const std::size_t n = smoke ? (1u << 16) : (1u << 20);
  const std::size_t kWorkers = 8;
  const auto cfg =
      omr::core::Config::for_transport(omr::core::Transport::kRdma);
  auto cluster = omr::core::ClusterSpec::colocated();
  cluster.fabric.worker_bandwidth_bps = 10e9;
  omr::sim::Rng rng(42);
  const auto inputs = omr::tensor::make_multi_worker(
      kWorkers, n, cfg.block_size, sparsity,
      omr::tensor::OverlapMode::kRandom, rng);
  std::vector<double> times;
  omr::core::RunStats stats;
  // Copy-assigned per repeat, as perfbench does: the buffers are reused,
  // so a repeat does not pay fresh-page faults on new worker tensors.
  std::vector<omr::tensor::DenseTensor> tensors;
  for (int r = 0; r < repeats; ++r) {
    tensors = inputs;
    const auto t0 = Clock::now();
    stats = omr::core::run_collective(algo, tensors, cfg, cluster,
                                      /*verify=*/false);
    times.push_back(ms_since(t0));
  }
  Result res;
  res.name = name;
  res.kind = "e2e";
  res.wall_ms = median(times);
  res.work_units = static_cast<double>(n * kWorkers);
  res.unit = "elements";
  res.has_sim = true;
  res.sim_completion_ns = static_cast<std::uint64_t>(stats.completion_time);
  res.sim_total_messages = stats.total_messages;
  res.sim_rounds = stats.rounds;
  res.sim_retransmissions = stats.retransmissions;
  return res;
}

void write_json(const std::vector<Result>& results, const std::string& label,
                bool smoke, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"schema\": \"omnireduce.bench_hotpaths.v1\",\n";
  out << "  \"label\": \"" << label << "\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"results\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"kind\": \"" << r.kind
        << "\", ";
    std::snprintf(buf, sizeof(buf),
                  "\"wall_ms\": %.4f, \"work_units\": %.0f, \"unit\": "
                  "\"%s\", \"units_per_sec\": %.1f",
                  r.wall_ms, r.work_units, r.unit.c_str(), r.units_per_sec());
    out << buf;
    if (r.has_sim) {
      std::snprintf(buf, sizeof(buf),
                    ", \"sim_completion_ns\": %llu, \"sim_total_messages\": "
                    "%llu, \"sim_rounds\": %llu, \"sim_retransmissions\": %llu",
                    static_cast<unsigned long long>(r.sim_completion_ns),
                    static_cast<unsigned long long>(r.sim_total_messages),
                    static_cast<unsigned long long>(r.sim_rounds),
                    static_cast<unsigned long long>(r.sim_retransmissions));
      out << buf;
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %zu results to %s\n", results.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_hotpaths.json";
  std::string label = "current";
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out PATH] [--label NAME] "
                   "[--only NAME]\n",
                   argv[0]);
      return 2;
    }
  }
  const int repeats = smoke ? 1 : 5;

  struct Entry {
    const char* name;
    Result (*run)(bool, int);
  };
  const Entry entries[] = {
      {"event_queue_churn", bench_event_queue_churn},
      {"event_queue_timer_cancel", bench_event_queue_timer_cancel},
      {"event_queue_far_horizon", bench_event_queue_far_horizon},
      {"event_queue_drain_reuse", bench_event_queue_drain_reuse},
      {"bitmap_build", bench_bitmap_build},
      {"bitmap_scan_stride1",
       [](bool s, int r) {
         return bench_bitmap_scan("bitmap_scan_stride1", 1, 0.99, s, r);
       }},
      {"bitmap_scan_stride16",
       [](bool s, int r) {
         return bench_bitmap_scan("bitmap_scan_stride16", 16, 0.99, s, r);
       }},
      {"reduce_kernel_sum",
       [](bool s, int r) {
         return bench_reduce_kernel("reduce_kernel_sum",
                                    omr::core::ReduceOp::kSum, false, s, r);
       }},
      {"reduce_kernel_fixed_point",
       [](bool s, int r) {
         return bench_reduce_kernel("reduce_kernel_fixed_point",
                                    omr::core::ReduceOp::kSum, true, s, r);
       }},
      {"reduce_kernel_max",
       [](bool s, int r) {
         return bench_reduce_kernel("reduce_kernel_max",
                                    omr::core::ReduceOp::kMax, false, s, r);
       }},
      {"dense_to_coo", bench_dense_to_coo},
      {"block_top_k", bench_block_top_k},
      {"error_feedback_step", bench_error_feedback_step},
      {"kv_allreduce", bench_kv_allreduce},
      {"e2e_rdma_s90",
       [](bool s, int r) {
         return bench_e2e_allreduce("e2e_rdma_s90",
                                    omr::core::Transport::kRdma, 0.0, s, r);
       }},
      {"e2e_dpdk_lossy",
       [](bool s, int r) {
         return bench_e2e_allreduce("e2e_dpdk_lossy",
                                    omr::core::Transport::kDpdk, 0.001, s, r);
       }},
      {"zoo_ring_s50",
       [](bool s, int r) {
         return bench_zoo("zoo_ring_s50", "ring", 0.5, s, r);
       }},
      {"zoo_sketch_s50",
       [](bool s, int r) {
         return bench_zoo("zoo_sketch_s50", "sketch", 0.5, s, r);
       }},
      {"zoo_ps_sparse_s50",
       [](bool s, int r) {
         return bench_zoo("zoo_ps_sparse_s50", "ps_sparse", 0.5, s, r);
       }},
      {"zoo_oktopk_s50",
       [](bool s, int r) {
         return bench_zoo("zoo_oktopk_s50", "oktopk", 0.5, s, r);
       }},
      {"zoo_sparcml_s90",
       [](bool s, int r) {
         return bench_zoo("zoo_sparcml_s90", "sparcml", 0.9, s, r);
       }},
      {"zoo_agsparse_s90",
       [](bool s, int r) {
         return bench_zoo("zoo_agsparse_s90", "agsparse", 0.9, s, r);
       }},
  };

  std::vector<const Entry*> selected;
  for (const Entry& e : entries) {
    if (!only.empty() && only != e.name) continue;
    selected.push_back(&e);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no benchmark named '%s'\n", only.c_str());
    return 2;
  }

  // The workloads are independent deterministic simulations, so fan them
  // out across OMR_JOBS cores; results commit (print + record) in entry
  // order. The simulated fields stay bit-identical regardless of the job
  // count; the wall-clock numbers are only meaningful for perf tracking
  // when run serially (OMR_JOBS=1) on an otherwise idle machine.
  std::vector<Result> results;
  omr::runner::parallel_for_each<Result>(
      selected.size(),
      [&](std::size_t i) { return selected[i]->run(smoke, repeats); },
      [&](std::size_t i, Result&& res) {
        std::printf("%-28s %10.2f ms", selected[i]->name, res.wall_ms);
        if (res.has_sim) {
          std::printf("  (sim=%llu ns, msgs=%llu, rounds=%llu, rtx=%llu)",
                      static_cast<unsigned long long>(res.sim_completion_ns),
                      static_cast<unsigned long long>(res.sim_total_messages),
                      static_cast<unsigned long long>(res.sim_rounds),
                      static_cast<unsigned long long>(res.sim_retransmissions));
        } else {
          std::printf("  (%.0f %s)", res.work_units, res.unit.c_str());
        }
        std::printf("\n");
        results.push_back(std::move(res));
      });

  write_json(results, label, smoke, out_path);
  return 0;
}
