// Repository benchmark: runs one workload over the simulator's public
// API from a single thread on the serial engine, checks every output, and
// prints its metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md for the workloads and metric definitions.
//
// Usage:
//   omr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] [--out-dir <dir>]
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hostspeed.h"
#include "spans.h"
#include "workloads.h"

using perfbench::Clock;
using perfbench::Harness;
using perfbench::SpanRecorder;
using perfbench::Workload;

namespace {

constexpr int kSetupReps = 11;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest decimal that round-trips the double (all its digits).
std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident memory so far (KiB): VmHWM, or ru_maxrss when /proc is
/// unreadable.
double rss_high_water_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // KiB on Linux
}

/// The host's speed over a run, sampled with HostSpeed's reference work
/// between ops, and the workload's peak memory without that work.
class Reference {
 public:
  static constexpr double kEverySeconds = 0.5;

  Reference() { reset_peak(); }  // drop HostSpeed's warm-up mapping

  /// Run the reference work once; returns its host time (ms). The peak
  /// memory mark is read before and reset after it, so the reference
  /// work's transient mapping never counts as the workload's.
  double sample() {
    peak_kb_ = std::max(peak_kb_, rss_high_water_kb());
    const double ms = speed_.sample();
    reset_peak();
    last_ = Clock::now();
    return ms;
  }

  /// Sample before op `i` when the last sample is kEverySeconds old.
  void before_op(std::size_t i) {
    if (i > 0 && seconds_since(last_) < kEverySeconds) return;
    ops_.push_back(i);
    ms_.push_back(sample());
  }

  /// Mean reference time of the samples taken before ops [lo, hi), or the
  /// last sample before `lo` when none was.
  double over_ops(std::size_t lo, std::size_t hi) const {
    double s = 0.0, last = 0.0;
    std::size_t n = 0;
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      if (ops_[k] < lo) last = ms_[k];
      if (ops_[k] >= lo && ops_[k] < hi) {
        s += ms_[k];
        ++n;
      }
    }
    return n > 0 ? s / static_cast<double>(n) : last;
  }

  const std::vector<double>& samples() const { return ms_; }

  double peak_rss_mb() const {
    return std::max(peak_kb_, rss_high_water_kb()) / 1024.0;
  }

 private:
  /// Restart VmHWM from the current resident size.
  static void reset_peak() { std::ofstream("/proc/self/clear_refs") << "5"; }

  perfbench::HostSpeed speed_;
  Clock::time_point last_ = Clock::now();
  std::vector<std::size_t> ops_;
  std::vector<double> ms_;
  double peak_kb_ = 0.0;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out-dir" && has_value) {
      o.out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", a.c_str());
      return false;
    }
  }
  return !o.workload.empty();
}

#ifdef __clang__
constexpr const char* kCompiler = "";  // __VERSION__ names clang itself
#else
constexpr const char* kCompiler = "gcc ";
#endif

/// Host, build and run parameters stamped on every result.
std::string env_stamp(const Options& o, bool optimized) {
#ifdef OMR_PERFBENCH_BUILD_TYPE
  const char* build_type = OMR_PERFBENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  return std::string("{\"nproc\":") +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":\"" + kCompiler + __VERSION__ +
         "\",\"build_type\":\"" +
         build_type + "\",\"optimized\":" + (optimized ? "true" : "false") +
         ",\"workload\":\"" + o.workload + "\",\"seed\":" +
         std::to_string(o.seed) + ",\"seconds\":" + num(o.seconds) +
         ",\"trace\":" + (o.trace ? "1" : "0") +
         ",\"smoke\":" + (o.smoke ? "true" : "false") + "}";
}

/// Why this process cannot measure the serial default ("" when it can).
std::string guard_reason(bool optimized) {
  if (!optimized) return "unoptimised build";
  for (const char* var : {"OMR_SIM_THREADS", "OMR_JOBS", "OMR_REPORT_JSON"}) {
    if (std::getenv(var) != nullptr) return std::string(var) + " is set";
  }
  return "";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Run whole passes of ops until at least `min_ops` ran and `seconds` of
/// wall-clock passed, sampling the host's speed between ops when `ref` is
/// given.
void run_ops(Workload& w, Harness& h, std::size_t min_ops, double seconds,
             Counts& c, Reference* ref) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (i >= min_ops && i % w.pass_ops() == 0 && seconds_since(t0) >= seconds) {
      break;
    }
    if (ref != nullptr) ref->before_op(i);
    h.begin_op(i);
    ++c.attempted;
    bool ok = false;
    try {
      w.run_op(i, h);
      ok = !h.op_failed();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %zu threw: %s\n", i, e.what());
    }
    if (!ok) ++c.failed;
  }
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Every simulated output and layer count of the prefix, for the
/// determinism test: identical across reruns of one seed.
void print_deterministic(const Workload& w) {
  const perfbench::SimTotals& t = w.totals();
  const auto u = [](std::uint64_t v) { return std::to_string(v); };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::pair<const char*, std::string> fields[] = {
      {"sim_ms_p50", num(w.sim_ms_quantile(0.5))},
      {"sim_ms_p90", num(w.sim_ms_quantile(0.9))},
      {"trainer_sim_ms", num(t.trainer_sim_ms)},
      {"regret", num(ratio(t.auto_sim_s, t.best_fixed_sim_s))},
      {"rounds", u(t.rounds)},
      {"messages", u(t.messages)},
      {"drops", u(t.drops)},
      {"retransmissions", u(t.retransmissions)},
      {"sim_events", u(t.sim_events)},
      {"spine_bytes", u(t.spine_bytes)},
      {"codec_saved_bytes", u(t.codec_saved_bytes)},
      {"codec_exact_folds", u(t.codec_exact_folds)},
      {"codec_requant_folds", u(t.codec_requant_folds)},
      {"requests", u(t.requests)},
      {"hit_rate", num(ratio(d(t.cache_hits), d(t.lookups)))},
      {"batch_occupancy", num(ratio(t.batched_requests, d(t.batches)))},
      {"shard_busy_frac", num(ratio(t.shard_busy_ns, t.shard_window_ns))},
      {"input_fnv", u(t.input_fnv)},
  };
  std::string out = "deterministic: {";
  for (const auto& [name, value] : fields) {
    if (out.back() != '{') out += ",";
    out += std::string("\"") + name + "\":" + value;
  }
  std::printf("%s}\n", out.c_str());
}

struct HostStats {
  double op_ms_p50 = 0.0;
  double op_ms_p90 = 0.0;
  double gb_per_s = 0.0;
};

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

/// Host-time quantiles per block of whole passes (at least 20 ops), then
/// the mean over blocks; throughput over every op of the run. With `ref`,
/// each block's op times are first scaled to the reference host speed by
/// the reference samples taken during that block.
HostStats host_stats(const Workload& w, const std::vector<double>& op_ms,
                     const Reference* ref) {
  const std::size_t pass = w.pass_ops();
  const std::size_t block =
      std::min((20 + pass - 1) / pass * pass, op_ms.size());
  std::vector<double> p50, p90;
  double bytes = 0.0;
  double op_s = 0.0;
  for (std::size_t b = 0; block > 0 && b + block <= op_ms.size(); b += block) {
    std::vector<double> v(op_ms.begin() + static_cast<long>(b),
                          op_ms.begin() + static_cast<long>(b + block));
    if (ref != nullptr) {
      const double ref_ms = ref->over_ops(b, b + block);
      for (double& x : v) x = perfbench::HostSpeed::at_reference(x, ref_ms);
    }
    for (std::size_t i = b; i < b + block; ++i) bytes += w.grad_bytes(i);
    op_s += sum(v) * 1e-3;
    p50.push_back(perfbench::quantile(v, 0.5));
    p90.push_back(perfbench::quantile(v, 0.9));
  }
  return {mean(p50), mean(p90), ratio(bytes * 1e-9, op_s)};
}

/// Host-time metrics at the reference host speed. The same figures as
/// measured, and the reference times, are printed on a `host:` line.
std::vector<Metric> end_to_end(const Workload& w, const Harness& h,
                               const Reference& ref,
                               const std::vector<double>& setup_s,
                               const std::vector<double>& setup_ref_ms) {
  std::vector<double> setup_at_ref;
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    setup_at_ref.push_back(
        perfbench::HostSpeed::at_reference(setup_s[i], setup_ref_ms[i]));
  }
  const HostStats host = host_stats(w, h.op_ms(), &ref);
  const HostStats raw = host_stats(w, h.op_ms(), nullptr);
  std::printf("host: as measured setup_s %s op_ms_p50 %s op_ms_p90 %s "
              "sim_gb_per_host_s %s; reference work %s ms (median of %zu, "
              "%s ms at reference speed)\n",
              num(perfbench::quantile(setup_s, 0.5)).c_str(),
              num(raw.op_ms_p50).c_str(), num(raw.op_ms_p90).c_str(),
              num(raw.gb_per_s).c_str(),
              num(perfbench::quantile(ref.samples(), 0.5)).c_str(),
              ref.samples().size(),
              num(perfbench::HostSpeed::kReferenceMs).c_str());
  return {
      {"setup_s", perfbench::quantile(setup_at_ref, 0.5), "s"},
      {"op_ms_p50", host.op_ms_p50, "ms"},
      {"op_ms_p90", host.op_ms_p90, "ms"},
      {"sim_ms_p50", w.sim_ms_quantile(0.5), "ms"},
      {"sim_ms_p90", w.sim_ms_quantile(0.9), "ms"},
      {"sim_gb_per_host_s", host.gb_per_s, "GB/s"},
      {"trainer_sim_ms", w.totals().trainer_sim_ms, "ms"},
      {"peak_rss_mb", ref.peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const Harness& traced,
                              const SpanRecorder& spans,
                              double untraced_op_ms_p50) {
  std::map<std::string, perfbench::LayerTime> layer;
  for (const auto& l : spans.layer_times()) layer[l.name] = l;
  const auto busy = [&](const char* name) { return layer[name].self_ms; };
  double baselines_ms = 0.0;
  for (const auto& [name, l] : layer) {
    if (name.rfind("baselines.", 0) == 0) baselines_ms += l.self_ms;
  }
  const perfbench::LayerTime& choose = layer["core.selector.choose"];
  const perfbench::SimTotals& t = w.totals();
  const double op_s = sum(traced.op_ms()) * 1e-3;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"baselines.ring.busy_ms", busy("baselines.ring"), "ms"},
      {"baselines.oktopk.busy_ms", busy("baselines.oktopk"), "ms"},
      {"baselines.sketch.busy_ms", busy("baselines.sketch"), "ms"},
      {"baselines.ps_sparse.busy_ms", busy("baselines.ps_sparse"), "ms"},
      {"baselines.sparcml.busy_ms", busy("baselines.sparcml"), "ms"},
      {"baselines.agsparse.busy_ms", busy("baselines.agsparse"), "ms"},
      {"baselines.busy_share", ratio(baselines_ms, layer["op"].total_ms),
       "ratio"},
      {"core.omnireduce.busy_ms", busy("core.omnireduce"), "ms"},
      {"core.session.rdma.busy_ms", busy("core.session.rdma"), "ms"},
      {"core.session.rdma_q8.busy_ms", busy("core.session.rdma_q8"), "ms"},
      {"core.omnireduce.dpdk_lossy.busy_ms",
       busy("core.omnireduce.dpdk_lossy"), "ms"},
      {"core.rounds", d(t.rounds), "count"},
      {"core.retransmissions", d(t.retransmissions), "count"},
      {"core.rtx_ratio", ratio(d(t.retransmissions), d(t.lossy_messages)),
       "ratio"},
      {"core.selector.choose_us",
       ratio(choose.total_ms * 1e3, d(choose.calls)), "us"},
      {"core.selector.regret",
       t.best_fixed_sim_s > 0.0 ? t.auto_sim_s / t.best_fixed_sim_s - 1.0
                                : 0.0,
       "ratio"},
      {"sim.events", d(t.sim_events), "count"},
      {"sim.events_per_host_s", ratio(d(t.sim_events), op_s), "1/s"},
      {"net.messages", d(t.messages), "count"},
      {"net.drops", d(t.drops), "count"},
      {"net.spine_mb", d(t.spine_bytes) * 1e-6, "MB"},
      {"compress.saved_mb", d(t.codec_saved_bytes) * 1e-6, "MB"},
      {"compress.exact_fold_ratio",
       ratio(d(t.codec_exact_folds),
             d(t.codec_exact_folds + t.codec_requant_folds)),
       "ratio"},
      {"serve.fabric_build_ms", busy("serve.fabric_build"), "ms"},
      {"serve.fabric_run_ms", busy("serve.fabric_run"), "ms"},
      {"serve.hit_rate", ratio(d(t.cache_hits), d(t.lookups)), "ratio"},
      {"serve.batch_occupancy", ratio(t.batched_requests, d(t.batches)),
       "requests"},
      {"serve.shard_busy_frac", ratio(t.shard_busy_ns, t.shard_window_ns),
       "ratio"},
      {"serve.requests_per_host_s", ratio(d(t.requests), op_s), "1/s"},
      {"serve.lookup_us_p50",
       perfbench::histogram_quantile_interp(t.lookup_ns, 0.5) * 1e-3, "us"},
      {"serve.lookup_us_p99",
       perfbench::histogram_quantile_interp(t.lookup_ns, 0.99) * 1e-3, "us"},
      {"bench.inputs_ms", traced.inputs_ms(), "ms"},
      {"bench.verify_ms", traced.verify_ms(), "ms"},
      {"bench.trace_overhead_ms",
       perfbench::quantile(traced.op_ms(), 0.5) - untraced_op_ms_p50, "ms"},
  };
}

/// Self-time table of the traced run, printed and written next to the
/// Chrome trace.
std::string layer_table(const SpanRecorder& spans) {
  double op_ms = 0.0;
  for (const auto& l : spans.layer_times()) {
    if (l.name == "op") op_ms = l.total_ms;
  }
  std::string out = "layer                              calls    total_ms"
                    "     self_ms  self/op\n";
  for (const auto& l : spans.layer_times()) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-32s %7llu %11.3f %11.3f %7.3f\n",
                  l.name.c_str(), static_cast<unsigned long long>(l.calls),
                  l.total_ms, l.self_ms, ratio(l.self_ms, op_ms));
    out += line;
  }
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  return static_cast<bool>(os);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: omr_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]\n");
    return 2;
  }
  if (perfbench::make_workload(o.workload, o.seed, o.smoke) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", o.workload.c_str());
    for (const auto& n : perfbench::workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const std::string env = env_stamp(o, optimized);
  std::printf("env: %s\n", env.c_str());
  const std::string guard = guard_reason(optimized);
  if (!guard.empty()) {
    std::fprintf(stderr, "refusing to measure: %s\n", guard.c_str());
    print_result(false, 1, 1, {});
    return 1;
  }
  Counts counts;
  std::vector<Metric> metrics;
  Reference ref;
  if (!o.trace) {
    std::vector<double> setup, setup_ref_ms;
    std::unique_ptr<Workload> w;
    for (int rep = 0; rep < (o.smoke ? 1 : kSetupReps); ++rep) {
      w = perfbench::make_workload(o.workload, o.seed, o.smoke);
      setup_ref_ms.push_back(ref.sample());
      const Clock::time_point t0 = Clock::now();
      w->setup();
      setup.push_back(seconds_since(t0));
    }
    SpanRecorder off(false);
    Harness h(off);
    run_ops(*w, h, w->prefix_ops(), o.smoke ? 0.0 : o.seconds, counts, &ref);
    print_deterministic(*w);
    metrics = end_to_end(*w, h, ref, setup, setup_ref_ms);
  } else {
    // The same op prefix twice on fresh state: untraced, then traced. The
    // difference of their op_ms_p50 is the tracing overhead. Busy times
    // are as measured; host.ref_ms tells the host's speed beside them.
    std::vector<double> ref_ms;
    for (int i = 0; i < 5; ++i) ref_ms.push_back(ref.sample());
    std::unique_ptr<Workload> plain =
        perfbench::make_workload(o.workload, o.seed, o.smoke);
    plain->setup();
    SpanRecorder off(false);
    Harness untraced(off);
    run_ops(*plain, untraced, plain->prefix_ops(), 0.0, counts, nullptr);
    plain.reset();

    std::unique_ptr<Workload> w =
        perfbench::make_workload(o.workload, o.seed, o.smoke);
    w->setup();
    SpanRecorder spans(true);
    Harness traced(spans);
    run_ops(*w, traced, w->prefix_ops(), 0.0, counts, nullptr);
    print_deterministic(*w);
    metrics = per_layer(*w, traced, spans,
                        perfbench::quantile(untraced.op_ms(), 0.5));
    metrics.push_back({"host.ref_ms", perfbench::quantile(ref_ms, 0.5), "ms"});

    const std::string table = layer_table(spans);
    std::printf("%s", table.c_str());
    const std::string stem = o.out_dir + "/" + o.workload + "_seed" +
                             std::to_string(o.seed);
    std::ofstream trace(stem + ".trace.json");
    spans.write_chrome_trace(trace, env);
    if (!trace || !write_file(stem + ".layers.txt", table)) {
      std::fprintf(stderr, "cannot write %s.*\n", stem.c_str());
      ++counts.failed;
    } else {
      std::printf("trace: %s.trace.json\n", stem.c_str());
    }
  }

  std::printf("fail_frac: %s (%llu of %llu ops)\n",
              num(ratio(static_cast<double>(counts.failed),
                        static_cast<double>(counts.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(counts.failed),
              static_cast<unsigned long long>(counts.attempted));
  for (const Metric& m : metrics) {
    std::printf("%-36s %18s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  const bool correct = counts.failed == 0;
  print_result(correct, counts.attempted, counts.failed, metrics);
  return correct ? 0 : 1;
}
