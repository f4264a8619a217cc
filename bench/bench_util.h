#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runner/sweep.h"
#include "sim/time.h"
#include "telemetry/report.h"

namespace omr::bench {

/// Collects telemetry::RunReport objects and, when the OMR_REPORT_JSON
/// environment variable names a path, writes them there as one
/// `omnireduce.run_report_array.v1` JSON document on flush. With the
/// variable unset the sink is disabled and add_at() is a no-op, so bench
/// binaries can call it unconditionally.
///
/// Reports arrive from Sweep::run's commits on the calling thread, each
/// keyed by its sweep cell; flush() merges by slot, so the emitted array
/// is identical for serial and parallel sweeps over the same grid.
///
/// Failure-safe: flush() returns false (and ok() turns false) when the
/// file cannot be written. Bench mains should exit non-zero via
/// bench::finish(sink) instead of relying on the destructor backstop.
class ReportSink {
 public:
  ReportSink() {
    const char* env = std::getenv("OMR_REPORT_JSON");
    if (env != nullptr) path_ = env;
  }
  ~ReportSink() { flush(); }
  ReportSink(const ReportSink&) = delete;
  ReportSink& operator=(const ReportSink&) = delete;

  bool enabled() const { return !path_.empty(); }
  bool ok() const { return !failed_; }

  /// Merge a task's reports at an explicit slot (its sweep index). Reports
  /// sharing a slot keep their given order; flush() orders slots.
  void add_at(std::size_t slot, std::vector<telemetry::RunReport> reports) {
    if (!enabled() || reports.empty()) return;
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& r : reports) entries_.push_back({slot, std::move(r)});
  }

  /// Write the merged array. Returns false — and remembers the failure —
  /// when the output file cannot be written.
  bool flush() {
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled() || entries_.empty()) return !failed_;
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.slot < b.slot;
                     });
    std::vector<telemetry::RunReport> reports;
    reports.reserve(entries_.size());
    for (auto& e : entries_) reports.push_back(std::move(e.report));
    entries_.clear();
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "OMR_REPORT_JSON: cannot write %s\n",
                   path_.c_str());
      failed_ = true;
      return false;
    }
    telemetry::write_report_array(reports, out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "OMR_REPORT_JSON: write to %s failed\n",
                   path_.c_str());
      failed_ = true;
      return false;
    }
    std::fprintf(stderr, "wrote %zu run report(s) to %s\n", reports.size(),
                 path_.c_str());
    return !failed_;
  }

 private:
  struct Entry {
    std::size_t slot;
    telemetry::RunReport report;
  };
  std::mutex mu_;
  std::string path_;
  std::vector<Entry> entries_;
  bool failed_ = false;
};

/// Flush the sink and turn a write failure into a non-zero exit code:
///   int main() { ...; return bench::finish(sink); }
inline int finish(ReportSink& sink) { return sink.flush() ? 0 : 1; }

/// One grid cell's outcome: the scalar a table prints plus any RunReports
/// destined for the ReportSink.
struct CellResult {
  double value = 0.0;
  std::vector<telemetry::RunReport> reports;
};

/// Grid-sweep harness for the figure/table benches. A bench enqueues one
/// job per grid cell up front, calls run() once, then formats its tables
/// from value(). Jobs execute across OMR_JOBS threads (default: all
/// cores; 1 = exact serial path) via runner::parallel_for_each; results
/// commit in submission order on the calling thread, so stdout tables and
/// the report JSON are byte-identical to a serial run regardless of
/// scheduling.
///
/// Jobs must be thread-isolated: build inputs from an explicit seed
/// inside the job and construct a fresh Engine/Network per run (every
/// core:: entry point already does).
class Sweep {
 public:
  explicit Sweep(ReportSink* sink = nullptr) : sink_(sink) {}

  using Job = std::function<CellResult()>;

  /// Enqueue one cell; returns its handle for value() after run().
  std::size_t add(Job job) {
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
  }
  /// Enqueue a report-less cell computing just the scalar.
  std::size_t add_value(std::function<double()> job) {
    return add([job = std::move(job)] { return CellResult{job(), {}}; });
  }

  /// Execute every enqueued job. Reports land in the sink keyed by cell
  /// index, so the merged JSON follows submission order.
  void run() {
    values_.assign(jobs_.size(), 0.0);
    runner::parallel_for_each<CellResult>(
        jobs_.size(),
        [this](std::size_t i) { return jobs_[i](); },
        [this](std::size_t i, CellResult&& r) {
          values_[i] = r.value;
          if (sink_ != nullptr) sink_->add_at(i, std::move(r.reports));
        });
    jobs_.clear();
  }

  double value(std::size_t cell) const { return values_.at(cell); }

 private:
  std::vector<Job> jobs_;
  std::vector<double> values_;
  ReportSink* sink_;
};

/// Tensor size for microbenchmarks, in elements. The paper uses 100 MB
/// (26.2M floats); that is the default. Override with OMR_MB=<megabytes>
/// for quicker runs — completion times scale linearly in the
/// bandwidth-dominated regime, so the figures' shapes are unchanged.
inline std::size_t micro_tensor_elements() {
  const char* env = std::getenv("OMR_MB");
  const double mb = env != nullptr ? std::atof(env) : 100.0;
  return static_cast<std::size_t>(mb * 1e6 / 4.0);
}

/// Reduced sampling scale for end-to-end workload gradients (elements).
inline std::size_t e2e_sample_elements() {
  const char* env = std::getenv("OMR_E2E_MB");
  const double mb = env != nullptr ? std::atof(env) : 16.0;
  return static_cast<std::size_t>(mb * 1e6 / 4.0);
}

/// Print a header for one figure/table reproduction.
inline void banner(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

/// Simple aligned row printer: first cell 26 chars, rest 12.
inline void row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::printf(i == 0 ? "%-26s" : "%12s", cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt_ms(sim::Time t) { return fmt(sim::to_milliseconds(t), 2); }

inline std::string fmt_pct(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", prec, v * 100.0);
  return buf;
}

}  // namespace omr::bench
