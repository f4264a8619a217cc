#include "telemetry/telemetry.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace omr::telemetry {

const char* event_name(EventKind kind) {
  switch (kind) {
    case EventKind::kMessageTx: return "message_tx";
    case EventKind::kMessageRx: return "message_rx";
    case EventKind::kMessageDrop: return "message_drop";
    case EventKind::kSlotOpen: return "slot_open";
    case EventKind::kSlotAggregate: return "slot_aggregate";
    case EventKind::kSlotComplete: return "slot_complete";
    case EventKind::kRetransmitFire: return "retransmit_timer_fire";
    case EventKind::kDuplicateResend: return "duplicate_resend";
    case EventKind::kRoundAdvance: return "round_advance";
    case EventKind::kAckTx: return "ack_tx";
    case EventKind::kCollective: return "collective";
    case EventKind::kLinkTx: return "link_tx";
    case EventKind::kLinkDrop: return "link_drop";
    case EventKind::kWorkerCrash: return "worker_crash";
    case EventKind::kWorkerRestart: return "worker_restart";
    case EventKind::kResync: return "resync";
    case EventKind::kPeerDead: return "peer_dead";
  }
  return "unknown";
}

Histogram Histogram::exponential(double lo, double hi, std::size_t bins) {
  Histogram h;
  h.bounds.reserve(bins);
  const double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(bins - 1));
  double b = lo;
  for (std::size_t i = 0; i + 1 < bins; ++i) {
    h.bounds.push_back(b);
    b *= ratio;
  }
  h.bounds.push_back(hi);
  h.counts.assign(h.bounds.size() + 1, 0);  // +1: open-ended top bin
  return h;
}

void Histogram::merge(const Histogram& other) {
  if (other.total == 0 && other.bounds.empty()) return;
  if (bounds.empty()) {
    *this = other;
    return;
  }
  if (bounds != other.bounds) {
    throw std::logic_error("Histogram::merge: bin layout mismatch");
  }
  if (other.total == 0) return;
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  if (total == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  total += other.total;
  sum += other.sum;
}

double histogram_quantile(const Histogram& h, double q) {
  if (h.total == 0) return 0.0;
  if (q <= 0.0) return h.min;
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(h.total));
  if (target < h.total) ++target;  // rank in [1, total]
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    cum += h.counts[i];
    if (cum >= target) {
      return i < h.bounds.size() ? h.bounds[i] : h.max;
    }
  }
  return h.max;
}

void Histogram::add(double v) {
  if (total == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++total;
  sum += v;
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  ++counts[static_cast<std::size_t>(it - bounds.begin())];
}

Tracer::Tracer(const TelemetryConfig& cfg)
    : cfg_(cfg),
      msg_wire_hist_(Histogram::exponential(64.0, 64.0 * 1024.0, 16)),
      round_gap_hist_(Histogram::exponential(100.0, 1e8, 16)) {
  trace_.process_names[kDriverPid] = "driver";
}

void Tracer::name_process(std::int32_t pid, std::string name) {
  trace_.process_names[pid] = std::move(name);
}

void Tracer::map_nic(int nic, std::int32_t pid) {
  if (nic < 0) return;
  if (static_cast<std::size_t>(nic) >= nics_.size()) {
    nics_.resize(static_cast<std::size_t>(nic) + 1);
  }
  nics_[static_cast<std::size_t>(nic)].pid = pid;
}

std::int32_t Tracer::nic_pid(int nic) const {
  if (nic < 0 || static_cast<std::size_t>(nic) >= nics_.size()) {
    return kDriverPid;
  }
  return nics_[static_cast<std::size_t>(nic)].pid;
}

Tracer::NicSeries& Tracer::nic_series(int nic) {
  if (static_cast<std::size_t>(nic) >= nics_.size()) {
    nics_.resize(static_cast<std::size_t>(nic) + 1);
  }
  return nics_[static_cast<std::size_t>(nic)];
}

void Tracer::record(const Event& e) {
  ++kind_counts_[static_cast<std::size_t>(e.kind)];
  if (!events_on()) return;
  if (cfg_.max_events != 0 && trace_.events.size() >= cfg_.max_events) {
    ++trace_.dropped_events;
    return;
  }
  trace_.events.push_back(e);
}

void Tracer::add_tx_bin(NicSeries& s, sim::Time ts, std::uint64_t bytes) {
  if (!series_on()) return;
  const std::int64_t bin = ts / kSampleInterval;
  if (!s.tx_bins.empty() && s.tx_bins.back().first == bin) {
    s.tx_bins.back().second += bytes;
  } else {
    s.tx_bins.emplace_back(bin, bytes);
  }
}

void Tracer::message_tx(int nic, sim::Time start, sim::Time end,
                        std::uint64_t wire_bytes,
                        std::uint64_t payload_bytes) {
  NicSeries& s = nic_series(nic);
  s.payload_bytes += payload_bytes;
  tx_wire_total_ += wire_bytes;
  tx_payload_total_ += payload_bytes;
  msg_wire_hist_.add(static_cast<double>(wire_bytes));
  add_tx_bin(s, start, wire_bytes);
  record({EventKind::kMessageTx, start, end - start, s.pid, kTidNicTx, 0,
          wire_bytes, payload_bytes});
}

void Tracer::message_rx(int nic, sim::Time start, sim::Time end,
                        std::uint64_t wire_bytes,
                        std::uint64_t payload_bytes) {
  record({EventKind::kMessageRx, start, end - start, nic_pid(nic), kTidNicRx,
          0, wire_bytes, payload_bytes});
}

void Tracer::message_drop(int nic, sim::Time ts, std::uint64_t wire_bytes,
                          std::int32_t dst_endpoint) {
  record({EventKind::kMessageDrop, ts, 0, nic_pid(nic), kTidNicRx, 0,
          wire_bytes, static_cast<std::uint64_t>(dst_endpoint)});
}

void Tracer::link_tx(int link, sim::Time start, sim::Time end,
                     std::uint64_t wire_bytes, std::uint64_t payload_bytes) {
  record({EventKind::kLinkTx, start, end - start,
          link_pid(static_cast<std::size_t>(link)), kTidNicTx, 0, wire_bytes,
          payload_bytes});
}

void Tracer::link_drop(int link, sim::Time ts, std::uint64_t wire_bytes) {
  record({EventKind::kLinkDrop, ts, 0,
          link_pid(static_cast<std::size_t>(link)), kTidNicTx, 0, wire_bytes,
          0});
}

void Tracer::slot_open(std::int32_t pid, sim::Time ts, std::uint32_t stream) {
  record({EventKind::kSlotOpen, ts, 0, pid, kTidProtocol, stream, 0, 0});
}

void Tracer::slot_aggregate(std::int32_t pid, sim::Time ts,
                            std::uint32_t stream, std::uint32_t wid) {
  record({EventKind::kSlotAggregate, ts, 0, pid, kTidProtocol, stream, wid,
          0});
}

void Tracer::slot_complete(std::int32_t pid, sim::Time ts,
                           std::uint32_t stream) {
  if (is_aggregator_pid(pid)) {
    auto& tl = timelines_[stream];
    tl.stream = stream;
    tl.completed = ts;
  }
  record({EventKind::kSlotComplete, ts, 0, pid, kTidProtocol, stream, 0, 0});
}

void Tracer::retransmit_fire(std::int32_t pid, sim::Time ts,
                             std::uint32_t stream,
                             std::uint64_t payload_bytes) {
  retx_payload_total_ += payload_bytes;
  record({EventKind::kRetransmitFire, ts, 0, pid, kTidProtocol, stream,
          payload_bytes, 0});
}

void Tracer::duplicate_resend(std::int32_t pid, sim::Time ts,
                              std::uint32_t stream, std::uint32_t wid) {
  record({EventKind::kDuplicateResend, ts, 0, pid, kTidProtocol, stream, wid,
          0});
}

void Tracer::round_advance(std::int32_t pid, sim::Time ts,
                           std::uint32_t stream, std::uint64_t round) {
  // Workers and aggregators both announce round advances; only the
  // aggregator's (the authoritative round completion) feeds the per-stream
  // timeline and the round-gap histogram.
  if (is_aggregator_pid(pid)) {
    auto& tl = timelines_[stream];
    tl.stream = stream;
    if (tl.rounds == 0) tl.first_round = ts;
    ++tl.rounds;
    auto it = last_round_ts_.find(stream);
    if (it != last_round_ts_.end() && ts > it->second) {
      round_gap_hist_.add(static_cast<double>(ts - it->second));
    }
    last_round_ts_[stream] = ts;
  }
  record({EventKind::kRoundAdvance, ts, 0, pid, kTidProtocol, stream, round,
          0});
}

void Tracer::ack_tx(std::int32_t pid, sim::Time ts, std::uint32_t stream) {
  record({EventKind::kAckTx, ts, 0, pid, kTidProtocol, stream, 0, 0});
}

void Tracer::collective_span(sim::Time begin, sim::Time end,
                             std::uint64_t index) {
  record({EventKind::kCollective, begin, end - begin, kDriverPid,
          kTidProtocol, 0, index, 0});
}

void Tracer::worker_crash(std::int32_t pid, sim::Time ts) {
  record({EventKind::kWorkerCrash, ts, 0, pid, kTidProtocol, 0, 0, 0});
}

void Tracer::worker_restart(std::int32_t pid, sim::Time ts) {
  record({EventKind::kWorkerRestart, ts, 0, pid, kTidProtocol, 0, 0, 0});
}

void Tracer::resync(std::int32_t pid, sim::Time ts, std::uint32_t stream) {
  record({EventKind::kResync, ts, 0, pid, kTidProtocol, stream, 0, 0});
}

void Tracer::peer_dead(sim::Time ts, std::uint64_t peer,
                       std::uint64_t peer_is_aggregator) {
  record({EventKind::kPeerDead, ts, 0, kDriverPid, kTidProtocol, 0, peer,
          peer_is_aggregator});
}

void Tracer::counter_sample(std::int32_t pid, const char* name, sim::Time ts,
                            double value) {
  if (!series_on()) return;
  const auto key = std::make_pair(pid, std::string(name));
  auto it = series_index_.find(key);
  if (it == series_index_.end()) {
    it = series_index_.emplace(key, trace_.series.size()).first;
    trace_.series.push_back(CounterSeries{key.second, pid, {}});
  }
  trace_.series[it->second].points.emplace_back(ts, value);
}

std::uint64_t Tracer::tx_payload_bytes(std::int32_t pid) const {
  std::uint64_t sum = 0;
  for (const NicSeries& s : nics_) {
    if (s.pid == pid) sum += s.payload_bytes;
  }
  return sum;
}

std::vector<StreamTimeline> Tracer::stream_timelines() const {
  std::vector<StreamTimeline> out;
  out.reserve(timelines_.size());
  for (const auto& [stream, tl] : timelines_) out.push_back(tl);
  return out;
}

Trace Tracer::snapshot_trace() const {
  Trace t = trace_;
  // Fold NIC utilization bins into counter series (bytes*8/interval = bps).
  if (series_on()) {
    for (const NicSeries& s : nics_) {
      if (s.tx_bins.empty()) continue;
      CounterSeries cs;
      cs.name = "nic_tx_gbps";
      cs.pid = s.pid;
      cs.points.reserve(s.tx_bins.size());
      const double interval_s = sim::to_seconds(kSampleInterval);
      for (const auto& [bin, bytes] : s.tx_bins) {
        cs.points.emplace_back(
            bin * kSampleInterval,
            static_cast<double>(bytes) * 8.0 / interval_s / 1e9);
      }
      t.series.push_back(std::move(cs));
    }
  }
  return t;
}

}  // namespace omr::telemetry
