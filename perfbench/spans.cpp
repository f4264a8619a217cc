#include "spans.h"

#include <iomanip>
#include <map>
#include <ostream>
#include <string_view>

namespace perfbench {

namespace {

std::int64_t since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

}  // namespace

int SpanRecorder::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = since(origin_);
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = since(origin_);
  open_.pop_back();
}

std::vector<LayerTime> SpanRecorder::layer_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string_view, LayerTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& t = by_name[s.name];
    t.name = s.name;
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++t.calls;
    t.total_ms += static_cast<double>(dur) * 1e-6;
    t.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
  }
  std::vector<LayerTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

void SpanRecorder::write_chrome_trace(std::ostream& os,
                                      const std::string& metadata_json) const {
  os << std::fixed << std::setprecision(3)
     << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
     << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ",\n";
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0"
       << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"op\":" << s.op << "}}";
  }
  os << "]}\n";
}

}  // namespace perfbench
