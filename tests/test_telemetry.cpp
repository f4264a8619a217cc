// Telemetry subsystem tests: bytes conservation between the traced NIC
// view and the protocol-level RunStats, Chrome-trace JSON well-formedness,
// and the zero-cost-when-disabled guarantee (bit-identical RunStats with
// telemetry off, and with telemetry on — hooks only observe).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/session.h"
#include "sim/rng.h"
#include "telemetry/report.h"
#include "telemetry/telemetry.h"
#include "tensor/generators.h"

namespace omr {
namespace {

// --- minimal JSON parser (no external deps allowed) -------------------------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON garbage");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
      case 'f': return bool_value();
      case 'n': return null_value();
      default: return number_value();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.obj.emplace(key.str, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::kString;
    expect('"');
    while (peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        char esc = s_[pos_++];
        switch (esc) {
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          default: v.str += esc;
        }
      } else {
        v.str += c;
      }
    }
    ++pos_;
    return v;
  }

  JsonValue bool_value() {
    JsonValue v;
    v.kind = JsonValue::kBool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  JsonValue null_value() {
    if (s_.compare(pos_, 4, "null") != 0) {
      throw std::runtime_error("bad literal");
    }
    pos_ += 4;
    JsonValue v;
    return v;
  }

  JsonValue number_value() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    JsonValue v;
    v.kind = JsonValue::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- fixtures ----------------------------------------------------------------

core::Config cfg16(core::Transport transport = core::Transport::kRdma) {
  core::Config cfg = core::Config::for_transport(transport);
  cfg.block_size = 16;
  cfg.packet_elements = 64;
  cfg.num_streams = 8;
  cfg.charge_bitmap_cost = false;
  if (transport == core::Transport::kDpdk) {
    cfg.retransmit_timeout = sim::microseconds(150);
  }
  return cfg;
}

core::ClusterSpec cluster_for(double loss, bool telemetry_on,
                              std::size_t n_aggregators = 2) {
  core::ClusterSpec cluster = core::ClusterSpec::dedicated(n_aggregators);
  cluster.fabric.one_way_latency = sim::microseconds(5);
  cluster.fabric.loss_rate = loss;
  cluster.device.gdr = true;
  cluster.telemetry.enabled = telemetry_on;
  return cluster;
}

std::vector<tensor::DenseTensor> make_tensors(std::size_t workers,
                                              std::size_t n,
                                              std::uint64_t seed) {
  sim::Rng rng(seed);
  return tensor::make_multi_worker(workers, n, 16, 0.5,
                                   tensor::OverlapMode::kRandom, rng);
}

std::uint64_t sum_u64(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

void expect_same_stats(const core::RunStats& a, const core::RunStats& b) {
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.worker_finish, b.worker_finish);
  EXPECT_EQ(a.worker_data_bytes, b.worker_data_bytes);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.dropped_messages, b.dropped_messages);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.acks, b.acks);
  EXPECT_EQ(a.duplicate_resends, b.duplicate_resends);
}

// --- bytes conservation ------------------------------------------------------

TEST(Telemetry, BytesConservationReliable) {
  auto tensors = make_tensors(4, 16 * 128, 1);
  telemetry::RunReport report = core::run_allreduce_report(
      tensors, cfg16(), cluster_for(0.0, true));
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.retransmit_payload_bytes, 0u);
  // Every payload byte the trace saw leave a worker NIC is accounted for by
  // the workers' own data_bytes_sent counters.
  EXPECT_EQ(report.traced_worker_payload_bytes,
            sum_u64(report.worker_data_bytes));
  EXPECT_GT(report.traced_worker_payload_bytes, 0u);
  // Wire bytes include headers/metadata on top of payload, from both sides.
  EXPECT_GT(report.wire_tx_bytes_total, report.traced_worker_payload_bytes);
}

TEST(Telemetry, BytesConservationLossy) {
  auto tensors = make_tensors(4, 16 * 256, 7);
  telemetry::RunReport report = core::run_allreduce_report(
      tensors, cfg16(core::Transport::kDpdk), cluster_for(0.05, true));
  EXPECT_TRUE(report.verified);
  EXPECT_GT(report.dropped_messages, 0u);
  // Fresh payload is counted by the workers; retransmitted payload is
  // counted by the tracer at timer fire. Their sum is exactly what the
  // traced NICs transmitted.
  EXPECT_EQ(report.traced_worker_payload_bytes,
            sum_u64(report.worker_data_bytes) +
                report.retransmit_payload_bytes);
}

// --- trace export ------------------------------------------------------------

TEST(Telemetry, LossyTraceIsValidChromeJsonWithMatchingCounts) {
  auto tensors = make_tensors(4, 16 * 256, 7);
  core::ClusterSpec cluster = cluster_for(0.05, true);
  telemetry::RunReport report = core::run_allreduce_report(
      tensors, cfg16(core::Transport::kDpdk), cluster);

  std::ostringstream os;
  telemetry::write_chrome_trace(report.trace, os);
  const std::string text = os.str();
  JsonValue root = JsonParser(text).parse();

  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::kArray);
  ASSERT_FALSE(events.arr.empty());

  std::map<std::string, std::uint64_t> counts;
  std::map<std::pair<std::int64_t, std::int64_t>, double> last_ts;
  std::uint64_t process_names = 0;
  for (const JsonValue& e : events.arr) {
    ASSERT_EQ(e.kind, JsonValue::kObject);
    const std::string ph = e.at("ph").str;
    const std::string name = e.at("name").str;
    if (ph == "M") {
      EXPECT_EQ(name, "process_name");
      ++process_names;
      continue;
    }
    if (ph == "C") continue;  // counter samples, separate clock per series
    ASSERT_TRUE(ph == "X" || ph == "i") << ph;
    ++counts[name];
    // Timestamps must be monotone within each (pid, tid) lane.
    const auto lane = std::make_pair(
        static_cast<std::int64_t>(e.at("pid").number),
        static_cast<std::int64_t>(e.at("tid").number));
    const double ts = e.at("ts").number;
    auto it = last_ts.find(lane);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second);
    }
    last_ts[lane] = ts;
  }
  // 4 workers + 2 aggregators + driver.
  EXPECT_EQ(process_names, 7u);
  EXPECT_EQ(counts["retransmit_timer_fire"], report.retransmissions);
  EXPECT_EQ(counts["duplicate_resend"], report.duplicate_resends);
  EXPECT_EQ(counts["message_drop"], report.dropped_messages);
  EXPECT_EQ(counts["ack_tx"], report.acks);
  EXPECT_EQ(counts["collective"], 1u);
  EXPECT_GT(counts["message_tx"], 0u);
  EXPECT_GT(counts["round_advance"], 0u);
}

TEST(Telemetry, ReportJsonParses) {
  auto tensors = make_tensors(3, 16 * 64, 3);
  telemetry::RunReport report = core::run_allreduce_report(
      tensors, cfg16(), cluster_for(0.0, true), /*verify=*/true, "unit");
  std::ostringstream os;
  report.write_json(os, /*include_trace=*/true);
  JsonValue root = JsonParser(os.str()).parse();
  EXPECT_EQ(root.at("schema").str, "omnireduce.run_report.v1");
  EXPECT_EQ(root.at("label").str, "unit");
  EXPECT_EQ(static_cast<std::uint64_t>(
                root.at("stats").at("total_messages").number),
            report.total_messages);
  EXPECT_EQ(root.at("workers").at("data_bytes").arr.size(), 3u);
  EXPECT_EQ(static_cast<std::size_t>(root.at("run").at("n_workers").number),
            3u);
  EXPECT_TRUE(root.at("trace").has("traceEvents"));
  EXPECT_FALSE(root.at("streams").arr.empty());
}

// --- zero-cost-when-disabled -------------------------------------------------

TEST(Telemetry, DisabledTelemetryRunsAreBitIdenticallyRepeatable) {
  // Two runs over equal inputs and an identical ClusterSpec must agree
  // bit for bit — the determinism the parallel sweep runner builds on.
  for (double loss : {0.0, 0.05}) {
    const core::Transport tr =
        loss > 0.0 ? core::Transport::kDpdk : core::Transport::kRdma;
    auto a = make_tensors(4, 16 * 128, 11);
    auto b = a;
    core::ClusterSpec cluster = cluster_for(loss, /*telemetry_on=*/false);
    core::RunStats first = core::run_allreduce(a, cfg16(tr), cluster);
    core::RunStats second = core::run_allreduce(b, cfg16(tr), cluster);
    expect_same_stats(first, second);
    for (std::size_t w = 0; w < a.size(); ++w) EXPECT_EQ(a[w], b[w]);
  }
}

TEST(Telemetry, EnabledTelemetryDoesNotPerturbResults) {
  for (double loss : {0.0, 0.05}) {
    const core::Transport tr =
        loss > 0.0 ? core::Transport::kDpdk : core::Transport::kRdma;
    auto a = make_tensors(4, 16 * 128, 13);
    auto b = a;
    core::RunStats off = core::run_allreduce(
        a, cfg16(tr), cluster_for(loss, /*telemetry_on=*/false));
    telemetry::RunReport on = core::run_allreduce_report(
        b, cfg16(tr), cluster_for(loss, /*telemetry_on=*/true));
    EXPECT_EQ(off.completion_time, on.completion_time);
    EXPECT_EQ(off.worker_finish, on.worker_finish);
    EXPECT_EQ(off.worker_data_bytes, on.worker_data_bytes);
    EXPECT_EQ(off.total_messages, on.total_messages);
    EXPECT_EQ(off.retransmissions, on.retransmissions);
    EXPECT_EQ(off.dropped_messages, on.dropped_messages);
    for (std::size_t w = 0; w < a.size(); ++w) EXPECT_EQ(a[w], b[w]);
  }
}

TEST(Telemetry, SessionMatchesEngineOnFirstCollective) {
  auto a = make_tensors(4, 16 * 128, 17);
  auto b = a;
  core::ClusterSpec cluster = cluster_for(0.05, /*telemetry_on=*/false);
  const core::Config cfg = cfg16(core::Transport::kDpdk);
  core::RunStats engine = core::run_allreduce(a, cfg, cluster);
  core::Session session(cfg, b.size(), cluster);
  core::RunStats sess = session.allreduce(b);
  expect_same_stats(engine, sess);
  for (std::size_t w = 0; w < a.size(); ++w) EXPECT_EQ(a[w], b[w]);
}

TEST(Telemetry, DisabledReportCarriesStatsOnly) {
  auto tensors = make_tensors(2, 16 * 32, 5);
  telemetry::RunReport report = core::run_allreduce_report(
      tensors, cfg16(), cluster_for(0.0, /*telemetry_on=*/false));
  EXPECT_TRUE(report.verified);
  EXPECT_GT(report.completion_time, 0);
  EXPECT_EQ(report.traced_worker_payload_bytes, 0u);
  EXPECT_TRUE(report.trace.events.empty());
  EXPECT_TRUE(report.streams.empty());
}

// --- tracer unit behavior ----------------------------------------------------

TEST(Telemetry, HistogramBinsAndMoments) {
  telemetry::Histogram h = telemetry::Histogram::exponential(10.0, 1000.0, 8);
  ASSERT_EQ(h.bounds.size(), 8u);
  ASSERT_EQ(h.counts.size(), 9u);
  h.add(5.0);     // below first bound
  h.add(10.0);    // == first bound
  h.add(5000.0);  // above top bound -> overflow bin
  EXPECT_EQ(h.total, 3u);
  EXPECT_DOUBLE_EQ(h.min, 5.0);
  EXPECT_DOUBLE_EQ(h.max, 5000.0);
  EXPECT_EQ(h.counts.front(), 2u);
  EXPECT_EQ(h.counts.back(), 1u);
}

TEST(Telemetry, MaxEventsCapCountsDrops) {
  telemetry::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.max_events = 2;
  telemetry::Tracer tracer(cfg);
  tracer.slot_open(1, 10, 0);
  tracer.slot_open(1, 20, 1);
  tracer.slot_open(1, 30, 2);
  EXPECT_EQ(tracer.trace().events.size(), 2u);
  EXPECT_EQ(tracer.trace().dropped_events, 1u);
  // Counters keep the true total even past the cap.
  EXPECT_EQ(tracer.count(telemetry::EventKind::kSlotOpen), 3u);
}

TEST(Telemetry, EventKindNamesAreUnique) {
  std::map<std::string, int> seen;
  for (std::size_t k = 0; k < telemetry::kNumEventKinds; ++k) {
    ++seen[telemetry::event_name(static_cast<telemetry::EventKind>(k))];
  }
  EXPECT_EQ(seen.size(), telemetry::kNumEventKinds);
  for (const auto& [name, n] : seen) {
    EXPECT_EQ(n, 1) << name;
    EXPECT_NE(name, "unknown");
  }
}

}  // namespace
}  // namespace omr
