#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One host-time interval around a call into a simulator layer. `parent`
/// indexes the enclosing span (-1 for a root); every span of one benchmark
/// op carries that op's id.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// Per-name totals over a recorder's spans. Self time is a span's duration
/// minus the part of it its child spans cover.
struct LayerTime {
  std::string name;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// In-memory span log. Disabled recorders ignore begin/end, so the untraced
/// run pays one branch per call site. Spans nest strictly (single thread).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int begin(const char* name, std::uint64_t op);
  void end(int id);

  std::vector<LayerTime> layer_times() const;

  /// Chrome about://tracing JSON (complete "X" events, microseconds).
  /// `metadata_json` is embedded verbatim as the "metadata" object.
  void write_chrome_trace(std::ostream& os,
                          const std::string& metadata_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one scope.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, std::uint64_t op)
      : rec_(rec), id_(rec.begin(name, op)) {}
  ~Scope() { rec_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
