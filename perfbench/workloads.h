#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "telemetry/telemetry.h"

namespace perfbench {

/// Simulated outputs and layer counters summed over a workload's fixed op
/// prefix. Everything here is a pure function of (workload, seed): the
/// determinism test compares it across reruns.
struct SimTotals {
  /// Virtual completion time of each collective (ms).
  std::vector<double> sim_ms;
  /// Virtual lookup latency of every serving request (ns).
  omr::telemetry::Histogram lookup_ns;
  double trainer_sim_ms = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t drops = 0;
  std::uint64_t retransmissions = 0;
  /// Messages of the ops that can retransmit (the lossy lane).
  std::uint64_t lossy_messages = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t spine_bytes = 0;
  std::uint64_t codec_saved_bytes = 0;
  std::uint64_t codec_exact_folds = 0;
  std::uint64_t codec_requant_folds = 0;
  /// Selector regret: auto lane against the best fixed algorithm per cell.
  double auto_sim_s = 0.0;
  double best_fixed_sim_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t batches = 0;
  double batched_requests = 0.0;
  double shard_busy_ns = 0.0;
  double shard_window_ns = 0.0;
  /// FNV-1a of the first op's generated inputs.
  std::uint64_t input_fnv = 0;
};

/// Per-run bookkeeping: host time of every op, the benchmark's own input
/// and verification cost, failed checks, and the span log.
class Harness {
 public:
  explicit Harness(SpanRecorder& spans) : spans_(spans) {}

  SpanRecorder& spans() { return spans_; }
  std::uint64_t op() const { return op_; }
  void begin_op(std::uint64_t op) {
    op_ = op;
    op_failed_ = false;
  }
  bool op_failed() const { return op_failed_; }

  /// Input generation, outside the op timer.
  template <class F>
  void inputs(F&& f) {
    timed(inputs_ms_, "bench.inputs", f);
  }
  /// Output checks, outside the op timer.
  template <class F>
  void verify(F&& f) {
    timed(verify_ms_, "bench.verify", f);
  }
  /// The timed call into the simulator's public API.
  template <class F>
  void call(F&& f) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(spans_, "op", op_);
      f();
    }
    op_ms_.push_back(ms_since(t0));
  }
  /// Record a failed output check of the current op.
  void check(bool ok, const std::string& what);

  const std::vector<double>& op_ms() const { return op_ms_; }
  double inputs_ms() const { return inputs_ms_; }
  double verify_ms() const { return verify_ms_; }

 private:
  static double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  }
  template <class F>
  void timed(double& acc, const char* name, F& f) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(spans_, name, op_);
      f();
    }
    acc += ms_since(t0);
  }

  SpanRecorder& spans_;
  std::uint64_t op_ = 0;
  bool op_failed_ = false;
  std::vector<double> op_ms_;
  double inputs_ms_ = 0.0;
  double verify_ms_ = 0.0;
};

/// One benchmark workload: a cycle of ops ("pass") over the public API.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Persistent state plus one warm-up op per lane at a small size.
  virtual void setup() = 0;
  virtual std::size_t pass_ops() const = 0;
  /// Whole passes whose simulated outputs feed SimTotals.
  virtual std::size_t prefix_ops() const = 0;
  /// Generate op `i`'s inputs, make the timed call, check the outputs;
  /// ops below prefix_ops() add to totals().
  virtual void run_op(std::size_t i, Harness& h) = 0;
  /// Gradient bytes (workers x elements x 4) op `i` reduces.
  virtual double grad_bytes(std::size_t i) const = 0;
  /// Quantile of the virtual per-op latency the workload reports as
  /// sim_ms_p50/p90 (ms).
  virtual double sim_ms_quantile(double q) const;

  const SimTotals& totals() const { return totals_; }

 protected:
  SimTotals totals_;
};

/// Workload names accepted by make_workload.
std::vector<std::string> workload_names();

/// nullptr for an unknown name. `smoke` shrinks every size for the
/// determinism test.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke);

/// Linear-interpolated quantile of `v` (0 when empty).
double quantile(std::vector<double> v, double q);

/// Quantile of a fixed-bin histogram, interpolated linearly inside the bin
/// the rank falls in (clamped to the observed min/max).
double histogram_quantile_interp(const omr::telemetry::Histogram& h,
                                 double q);

}  // namespace perfbench
