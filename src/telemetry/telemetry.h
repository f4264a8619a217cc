#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace omr::telemetry {

/// Typed event taxonomy (docs/TELEMETRY.md). Span events carry a nonzero
/// duration (NIC serialization windows); the rest are instants keyed by
/// simulated nanoseconds.
enum class EventKind : std::uint8_t {
  kMessageTx,        // span: TX serialization window on a NIC
  kMessageRx,        // span: RX serialization window on a NIC
  kMessageDrop,      // instant: loss injection discarded the message
  kSlotOpen,         // instant: aggregator registered a stream's slot
  kSlotAggregate,    // instant: aggregator folded one worker's packet
  kSlotComplete,     // instant: stream finished (all columns exhausted)
  kRetransmitFire,   // instant: worker retransmission timer expired
  kDuplicateResend,  // instant: aggregator re-sent a round result
  kRoundAdvance,     // instant: one aggregation round completed
  kAckTx,            // instant: worker sent a payload-less ack
  kCollective,       // span: one whole collective on the driver lane
  kLinkTx,           // span: store-and-forward serialization on a fabric link
  kLinkDrop,         // instant: a fabric link's loss process ate the message
  kWorkerCrash,      // instant: fault injection crashed a worker
  kWorkerRestart,    // instant: a crashed worker restarted (resync begins)
  kResync,           // instant: a block-level state resync request was sent
  kPeerDead,         // instant: liveness/watchdog verdict (driver lane)
};

inline constexpr std::size_t kNumEventKinds = 17;

/// Stable snake_case names used as the `name` field of the Chrome trace.
const char* event_name(EventKind kind);

/// Lane scheme: every simulated process gets a Chrome-trace pid. Worker
/// protocol events and the worker NIC share the worker's pid (tracks are
/// tids); dedicated aggregator NICs live on the aggregator pid.
constexpr std::int32_t kDriverPid = 0;
constexpr std::int32_t worker_pid(std::size_t w) {
  return 1 + static_cast<std::int32_t>(w);
}
constexpr std::int32_t aggregator_pid(std::size_t a) {
  return 1'000'001 + static_cast<std::int32_t>(a);
}
/// Interior fabric links (ToR uplinks / spine ports) get their own lanes
/// above the aggregator range.
constexpr std::int32_t link_pid(std::size_t l) {
  return 2'000'001 + static_cast<std::int32_t>(l);
}
constexpr bool is_aggregator_pid(std::int32_t pid) {
  return pid >= 1'000'001 && pid < 2'000'001;
}
constexpr bool is_link_pid(std::int32_t pid) { return pid >= 2'000'001; }

/// Tracks (tids) within a process lane.
constexpr std::int32_t kTidProtocol = 0;
constexpr std::int32_t kTidNicTx = 1;
constexpr std::int32_t kTidNicRx = 2;

/// One recorded event. `arg0`/`arg1` are kind-specific:
///   kMessageTx/kMessageRx: wire bytes / payload bytes
///   kMessageDrop:          wire bytes / destination endpoint
///   kSlotAggregate:        worker id  / 0
///   kRoundAdvance:         round or blocks advanced / 0
///   kRetransmitFire:       payload bytes of the resent packet / 0
///   kDuplicateResend:      worker id  / 0
struct Event {
  EventKind kind = EventKind::kMessageTx;
  sim::Time ts = 0;
  sim::Time dur = 0;  // 0 = instant
  std::int32_t pid = 0;
  std::int32_t tid = 0;
  std::uint32_t stream = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
};

/// Bin width of the NIC utilization series.
inline constexpr sim::Time kSampleInterval = sim::microseconds(100);

/// Opt-in switches. The default-constructed config is fully disabled: the
/// engine then never constructs a Tracer and every hook site is a null
/// pointer check — the hot event loop pays nothing.
struct TelemetryConfig {
  bool enabled = false;
  /// Record the typed event timeline (Chrome trace export). Rolling
  /// counters and time series (NIC utilization in kSampleInterval bins,
  /// in-flight slot occupancy) are kept whenever `enabled` is set.
  bool trace_events = true;
  /// Drop trace events beyond this count (0 = unbounded). Counters keep
  /// accumulating either way, so RunReport totals stay exact.
  std::size_t max_events = 0;
};

/// A time series of (ts, value) samples attached to one process lane,
/// exported as Chrome counter ("ph":"C") events.
struct CounterSeries {
  std::string name;
  std::int32_t pid = 0;
  std::vector<std::pair<sim::Time, double>> points;
};

/// Fixed-bin histogram (log-spaced bounds work well for sizes/gaps).
struct Histogram {
  std::vector<double> bounds;  // upper bound per bin; last bin is open
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  static Histogram exponential(double lo, double hi, std::size_t bins);
  void add(double v);
  /// Fold `other` into this histogram. Requires an identical bin layout
  /// (or an empty *this, which adopts other's); throws on a mismatch.
  void merge(const Histogram& other);
  double mean() const { return total > 0 ? sum / static_cast<double>(total) : 0.0; }
};

/// Conservative quantile estimate from a fixed-bin histogram: the upper
/// bound of the first bin whose cumulative count reaches the rank
/// min(floor(q * total) + 1, total) (the observed max for the open top
/// bin, the observed min for q <= 0). Where q * total is an integer the
/// rank is one above ceil(q * total): q = 0.5 over 100 values reads the
/// 51st.
/// Byte-stable because the bounds are fixed at construction. 0 when empty.
double histogram_quantile(const Histogram& h, double q);

/// The full recorded timeline of one run (or one Session lifetime).
struct Trace {
  std::vector<Event> events;
  std::map<std::int32_t, std::string> process_names;
  std::vector<CounterSeries> series;
  std::size_t dropped_events = 0;  // trimmed by TelemetryConfig::max_events
};

/// Per-stream slot timeline entry for the RunReport.
struct StreamTimeline {
  std::uint32_t stream = 0;
  std::uint64_t rounds = 0;
  sim::Time first_round = 0;  // ts of the first completed round
  sim::Time completed = 0;    // ts of slot completion (0 = never)
};

/// Records typed events, rolling counters and sampled series for one
/// simulated cluster. All hooks are cheap appends; call sites guard with a
/// null Tracer* so disabled telemetry costs one pointer compare.
class Tracer {
 public:
  explicit Tracer(const TelemetryConfig& cfg);

  const TelemetryConfig& config() const { return cfg_; }
  bool events_on() const { return cfg_.enabled && cfg_.trace_events; }
  bool series_on() const { return cfg_.enabled; }

  /// Human-readable lane name ("worker 3", "aggregator 0", "driver").
  void name_process(std::int32_t pid, std::string name);
  /// Route fabric events of NIC `nic` onto lane `pid` (workers and
  /// colocated aggregators share a lane; dedicated aggregators get their
  /// own).
  void map_nic(int nic, std::int32_t pid);

  // --- fabric hooks (called by net::Network) -----------------------------
  void message_tx(int nic, sim::Time start, sim::Time end,
                  std::uint64_t wire_bytes, std::uint64_t payload_bytes);
  void message_rx(int nic, sim::Time start, sim::Time end,
                  std::uint64_t wire_bytes, std::uint64_t payload_bytes);
  void message_drop(int nic, sim::Time ts, std::uint64_t wire_bytes,
                    std::int32_t dst_endpoint);

  // --- fabric-link hooks (store-and-forward topologies) ------------------
  void link_tx(int link, sim::Time start, sim::Time end,
               std::uint64_t wire_bytes, std::uint64_t payload_bytes);
  void link_drop(int link, sim::Time ts, std::uint64_t wire_bytes);

  // --- protocol hooks (called by Worker / Aggregator) --------------------
  void slot_open(std::int32_t pid, sim::Time ts, std::uint32_t stream);
  void slot_aggregate(std::int32_t pid, sim::Time ts, std::uint32_t stream,
                      std::uint32_t wid);
  void slot_complete(std::int32_t pid, sim::Time ts, std::uint32_t stream);
  void retransmit_fire(std::int32_t pid, sim::Time ts, std::uint32_t stream,
                       std::uint64_t payload_bytes);
  void duplicate_resend(std::int32_t pid, sim::Time ts, std::uint32_t stream,
                        std::uint32_t wid);
  void round_advance(std::int32_t pid, sim::Time ts, std::uint32_t stream,
                     std::uint64_t round);
  void ack_tx(std::int32_t pid, sim::Time ts, std::uint32_t stream);
  void collective_span(sim::Time begin, sim::Time end, std::uint64_t index);

  // --- fault/recovery hooks (fault-injection layer) ----------------------
  void worker_crash(std::int32_t pid, sim::Time ts);
  void worker_restart(std::int32_t pid, sim::Time ts);
  void resync(std::int32_t pid, sim::Time ts, std::uint32_t stream);
  /// Failure verdict on the driver lane. `peer` is the dead worker id /
  /// aggregator node (static_cast<uint64_t>(-1) for a watchdog verdict).
  void peer_dead(sim::Time ts, std::uint64_t peer,
                 std::uint64_t peer_is_aggregator);

  /// Occupancy-style sampled counter (e.g. worker in-flight slots).
  void counter_sample(std::int32_t pid, const char* name, sim::Time ts,
                      double value);

  // --- rolling counters / accessors --------------------------------------
  std::uint64_t count(EventKind kind) const {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }
  /// Transmitted payload bytes attributed to lane `pid` (its NICs).
  std::uint64_t tx_payload_bytes(std::int32_t pid) const;
  std::uint64_t tx_wire_bytes_total() const { return tx_wire_total_; }
  std::uint64_t tx_payload_bytes_total() const { return tx_payload_total_; }
  std::uint64_t retransmit_payload_bytes() const { return retx_payload_total_; }

  const Histogram& message_wire_hist() const { return msg_wire_hist_; }
  const Histogram& round_gap_hist() const { return round_gap_hist_; }
  const std::vector<Event>& events() const { return trace_.events; }
  const Trace& trace() const { return trace_; }

  /// Per-stream slot timelines accumulated from round/complete events.
  std::vector<StreamTimeline> stream_timelines() const;

  /// Snapshot the recorded timeline (copy: the tracer keeps recording, so
  /// a Session can report per-iteration while the trace spans the run).
  Trace snapshot_trace() const;

 private:
  struct NicSeries {
    std::int32_t pid = 0;
    std::uint64_t payload_bytes = 0;
    // (bin index -> bytes) utilization bins; sorted by construction since
    // virtual time only moves forward.
    std::vector<std::pair<std::int64_t, std::uint64_t>> tx_bins;
  };

  void record(const Event& e);
  void add_tx_bin(NicSeries& s, sim::Time ts, std::uint64_t bytes);
  std::int32_t nic_pid(int nic) const;
  NicSeries& nic_series(int nic);

  TelemetryConfig cfg_;
  Trace trace_;
  std::uint64_t kind_counts_[kNumEventKinds] = {};
  std::uint64_t tx_wire_total_ = 0;
  std::uint64_t tx_payload_total_ = 0;
  std::uint64_t retx_payload_total_ = 0;
  Histogram msg_wire_hist_;
  Histogram round_gap_hist_;
  std::vector<NicSeries> nics_;
  std::map<std::uint32_t, StreamTimeline> timelines_;
  std::map<std::uint32_t, sim::Time> last_round_ts_;
  // counter_sample series are folded into trace_.series lazily.
  std::map<std::pair<std::int32_t, std::string>, std::size_t> series_index_;
};

/// Serialize a Trace as Chrome about://tracing JSON (also loadable in
/// Perfetto). Events are sorted by timestamp; counter series become "C"
/// events; lanes get process_name metadata.
void write_chrome_trace(const Trace& trace, std::ostream& os);

}  // namespace omr::telemetry
