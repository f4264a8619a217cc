#include "telemetry/report.h"

#include <ostream>
#include <sstream>

namespace omr::telemetry {

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
}

template <typename T>
void write_array(std::ostream& os, const std::vector<T>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ",";
    os << v[i];
  }
  os << "]";
}

void write_histogram(std::ostream& os, const Histogram& h) {
  os << "{\"total\":" << h.total << ",\"sum\":" << h.sum
     << ",\"min\":" << h.min << ",\"max\":" << h.max << ",\"mean\":"
     << h.mean() << ",\"bounds\":";
  write_array(os, h.bounds);
  os << ",\"counts\":";
  write_array(os, h.counts);
  os << "}";
}

void write_serve_report(std::ostream& os, const ServeReport& r) {
  os << "{\"schema\":\"omnireduce.serve_report.v1\",\"name\":\"";
  write_escaped(os, r.name);
  os << "\",\"spec\":{\"n_shards\":" << r.n_shards
     << ",\"n_clients\":" << r.n_clients << ",\"key_space\":" << r.key_space
     << ",\"cache_capacity\":" << r.cache_capacity << ",\"cache_policy\":\"";
  write_escaped(os, r.cache_policy);
  os << "\",\"routing\":\"";
  write_escaped(os, r.routing);
  os << "\",\"zipf_alpha\":" << r.zipf_alpha
     << ",\"batch_window_ns\":" << r.batch_window << "}";
  os << ",\"totals\":{\"requests_issued\":" << r.requests_issued
     << ",\"responses_received\":" << r.responses_received
     << ",\"in_flight_at_drain\":" << r.in_flight_at_drain
     << ",\"lookups\":" << r.lookups << ",\"updates\":" << r.updates
     << ",\"cache_hits\":" << r.cache_hits
     << ",\"cache_misses\":" << r.cache_misses
     << ",\"hit_rate\":" << r.hit_rate
     << ",\"first_issue_ns\":" << r.first_issue
     << ",\"finish_ns\":" << r.finish << "}";
  os << ",\"shards\":[";
  for (std::size_t i = 0; i < r.shards.size(); ++i) {
    const ServeShardSummary& s = r.shards[i];
    if (i > 0) os << ",";
    os << "{\"shard\":" << s.shard << ",\"requests\":" << s.requests
       << ",\"lookups\":" << s.lookups << ",\"updates\":" << s.updates
       << ",\"cache_hits\":" << s.cache_hits
       << ",\"cache_misses\":" << s.cache_misses
       << ",\"cache_evictions\":" << s.cache_evictions
       << ",\"batches\":" << s.batches
       << ",\"mean_batch_occupancy\":" << s.mean_batch_occupancy
       << ",\"hot_keys\":" << s.hot_keys << ",\"busy_ns\":" << s.busy_ns
       << ",\"qps\":" << s.qps << "}";
  }
  os << "],\"lanes\":[";
  for (std::size_t i = 0; i < r.lanes.size(); ++i) {
    const ServeLatencyLane& lane = r.lanes[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"";
    write_escaped(os, lane.name);
    os << "\",\"p50_ns\":" << lane.p50_ns << ",\"p99_ns\":" << lane.p99_ns
       << ",\"p999_ns\":" << lane.p999_ns << ",\"latency_ns\":";
    write_histogram(os, lane.latency_ns);
    os << "}";
  }
  os << "]}";
}

}  // namespace

double CollectiveStats::mean_worker_data_bytes() const {
  if (worker_data_bytes.empty()) return 0.0;
  double s = 0.0;
  for (auto b : worker_data_bytes) s += static_cast<double>(b);
  return s / static_cast<double>(worker_data_bytes.size());
}

void RunReport::write_json(std::ostream& os, bool include_trace) const {
  os << "{\"schema\":\"omnireduce.run_report.v1\",\"label\":\"";
  write_escaped(os, label);
  os << "\",\"stats\":{";
  os << "\"completion_ns\":" << completion_time
     << ",\"completion_ms\":" << completion_ms()
     << ",\"total_messages\":" << total_messages
     << ",\"retransmissions\":" << retransmissions
     << ",\"dropped_messages\":" << dropped_messages
     << ",\"rounds\":" << rounds << ",\"acks\":" << acks
     << ",\"duplicate_resends\":" << duplicate_resends
     << ",\"rto_ns\":" << rto_ns
     << ",\"round_model_ns\":" << round_model_ns
     << ",\"verified\":" << (verified ? "true" : "false")
     << ",\"max_error\":" << max_error
     << ",\"mean_worker_data_bytes\":" << mean_worker_data_bytes() << "}";

  os << ",\"run\":{\"n_workers\":" << n_workers
     << ",\"n_aggregators\":" << n_aggregators
     << ",\"tensor_elements\":" << tensor_elements
     << ",\"sim_events_executed\":" << sim_events_executed << "}";

  os << ",\"workers\":{\"finish_ns\":";
  write_array(os, worker_finish);
  os << ",\"data_bytes\":";
  write_array(os, worker_data_bytes);
  os << "}";

  os << ",\"totals\":{\"traced_worker_payload_bytes\":"
     << traced_worker_payload_bytes
     << ",\"retransmit_payload_bytes\":" << retransmit_payload_bytes
     << ",\"wire_tx_bytes_total\":" << wire_tx_bytes_total << "}";

  os << ",\"histograms\":{\"message_wire_bytes\":";
  write_histogram(os, message_wire_bytes);
  os << ",\"round_gap_ns\":";
  write_histogram(os, round_gap_ns);
  os << "}";

  if (fault_layer) {
    os << ",\"fault\":{\"verdict\":\"";
    write_escaped(os, verdict);
    os << "\",\"completed\":" << (verdict == "completed" ? "true" : "false")
       << ",\"failed_peer\":" << failed_peer
       << ",\"failed_peer_is_aggregator\":"
       << (failed_peer_is_aggregator ? "true" : "false")
       << ",\"failure_at_ns\":" << failure_at << ",\"detail\":\"";
    write_escaped(os, failure_detail);
    os << "\",\"worker_crashes\":" << worker_crashes
       << ",\"resyncs\":" << resyncs << ",\"worker_retries\":";
    write_array(os, worker_retries);
    os << ",\"worker_fault_stall_ns\":";
    write_array(os, worker_fault_stall_ns);
    os << "}";
  }

  if (!codec.empty()) {
    os << ",\"codec\":{\"name\":\"";
    write_escaped(os, codec);
    os << "\",\"saved_bytes\":" << codec_saved_bytes
       << ",\"exact_folds\":" << codec_exact_folds
       << ",\"requant_folds\":" << codec_requant_folds
       << ",\"residual_l2\":" << codec_residual_l2 << "}";
  }

  if (!links.empty()) {
    os << ",\"links\":[";
    for (std::size_t i = 0; i < links.size(); ++i) {
      const LinkReport& l = links[i];
      if (i > 0) os << ",";
      os << "{\"name\":\"";
      write_escaped(os, l.name);
      os << "\",\"tx_bytes\":" << l.tx_bytes
         << ",\"tx_messages\":" << l.tx_messages
         << ",\"dropped_messages\":" << l.dropped_messages << "}";
    }
    os << "]";
  }

  os << ",\"streams\":[";
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamTimeline& tl = streams[i];
    if (i > 0) os << ",";
    os << "{\"stream\":" << tl.stream << ",\"rounds\":" << tl.rounds
       << ",\"first_round_ns\":" << tl.first_round
       << ",\"completed_ns\":" << tl.completed << "}";
  }
  os << "]";

  if (include_trace) {
    os << ",\"trace\":";
    std::ostringstream trace_os;
    write_chrome_trace(trace, trace_os);
    os << trace_os.str();
  }
  os << "}";
}

void write_report_array(const std::vector<RunReport>& reports,
                        std::ostream& os) {
  os << "{\"schema\":\"omnireduce.run_report_array.v1\",\"reports\":[\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i > 0) os << ",\n";
    reports[i].write_json(os);
  }
  os << "\n]}\n";
}

void FabricReport::write_json(std::ostream& os) const {
  os << "{\"schema\":\"omnireduce.fabric_report.v1\",\"topology\":\"";
  write_escaped(os, topology);
  os << "\",\"n_machines\":" << n_machines
     << ",\"switch_slots\":" << switch_slots
     << ",\"fairness_index\":" << fairness_index << ",\"jobs\":[";
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const FabricJobSummary& job = jobs[j];
    if (j > 0) os << ",";
    os << "{\"name\":\"";
    write_escaped(os, job.name);
    if (!job.kind.empty()) {
      os << "\",\"kind\":\"";
      write_escaped(os, job.kind);
    }
    os << "\",\"admitted\":" << (job.admitted ? "true" : "false");
    if (!job.rejection.empty()) {
      os << ",\"rejection\":\"";
      write_escaped(os, job.rejection);
      os << "\"";
    }
    os << ",\"weight\":" << job.weight << ",\"start_at_ns\":" << job.start_at
       << ",\"finish_ns\":" << job.finish << ",\"steps\":" << job.steps
       << ",\"data_bytes\":" << job.data_bytes << ",\"rounds\":" << job.rounds
       << ",\"retransmissions\":" << job.retransmissions
       << ",\"resyncs\":" << job.resyncs
       << ",\"stale_drops\":" << job.stale_drops
       << ",\"verified\":" << (job.verified ? "true" : "false")
       << ",\"step_completion_ns\":";
    write_array(os, job.step_completion);
    os << ",\"step_active\":";
    write_array(os, job.step_active);
    os << "}";
  }
  os << "],\"link_shares\":[";
  for (std::size_t i = 0; i < link_shares.size(); ++i) {
    const TenantLinkShare& s = link_shares[i];
    if (i > 0) os << ",";
    os << "{\"link\":\"";
    write_escaped(os, s.link);
    os << "\",\"job\":\"";
    write_escaped(os, s.job);
    os << "\",\"tx_bytes\":" << s.tx_bytes
       << ",\"tx_messages\":" << s.tx_messages
       << ",\"dropped_messages\":" << s.dropped_messages << "}";
  }
  os << "]";
  if (!serve.empty()) {
    os << ",\"serve\":[";
    for (std::size_t i = 0; i < serve.size(); ++i) {
      if (i > 0) os << ",";
      write_serve_report(os, serve[i]);
    }
    os << "]";
  }
  os << "}";
}

}  // namespace omr::telemetry
