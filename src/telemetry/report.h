#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.h"
#include "telemetry/telemetry.h"

namespace omr::telemetry {

/// Per-fabric-link counters (NicStats-style) for store-and-forward
/// topologies: one entry per interior link (ToR uplink / spine port),
/// named by the topology. Empty on the ideal single-switch fabric.
struct LinkReport {
  std::string name;
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_messages = 0;
  std::uint64_t dropped_messages = 0;
};

/// Counters of one collective, shared by core::RunStats (what a run
/// returns) and RunReport (what it serializes): both derive from this, so
/// a report takes a run's stats in one assignment. Fault counters stay
/// empty/zero unless ClusterSpec::faults is enabled, codec fields unless
/// Config::codec is.
struct CollectiveStats {
  sim::Time completion_time = 0;  // max over workers (the paper's metric)
  std::vector<sim::Time> worker_finish;
  std::vector<std::uint64_t> worker_data_bytes;  // payload only
  std::uint64_t total_messages = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t acks = 0;               // payload-less packets (Algorithm 2)
  std::uint64_t duplicate_resends = 0;  // aggregator result retransmissions
  /// Algorithm 2's retransmission timeout this collective armed and the
  /// predicted slot round T_round it was sized from (both 0 without loss
  /// recovery), so a report explains its own retransmission count.
  sim::Time rto_ns = 0;
  sim::Time round_model_ns = 0;
  bool verified = false;
  double max_error = 0.0;
  /// Per-fabric-link counters, one per interior link. Empty on the ideal
  /// switch, where the report omits the "links" key, so ideal-switch
  /// reports stay byte-identical to pre-topology runs.
  std::vector<LinkReport> links;

  // --- fault layer (ClusterSpec::faults) -----------------------------------
  std::vector<std::uint64_t> worker_retries;
  std::vector<sim::Time> worker_fault_stall_ns;
  std::uint64_t worker_crashes = 0;
  std::uint64_t resyncs = 0;

  // --- wire-codec lane (Config::codec) -------------------------------------
  /// Codec name ("fp8", "q8", ...). Empty when the codec is disabled; the
  /// "codec" JSON section is serialized only when non-empty, so
  /// uncompressed reports stay byte-identical.
  std::string codec;
  std::uint64_t codec_saved_bytes = 0;   // both legs, raw minus encoded
  std::uint64_t codec_exact_folds = 0;   // quantized-domain column sums
  std::uint64_t codec_requant_folds = 0; // dequant-fold-requant fallbacks
  double codec_residual_l2 = 0.0;        // sqrt(sum sq quantization error)

  double completion_ms() const { return sim::to_milliseconds(completion_time); }
  /// Mean per-worker transmitted payload (Table 1's "OmniReduce comm.").
  double mean_worker_data_bytes() const;
};

/// Structured outcome of one collective (or a whole Session): the
/// collective's counters plus telemetry-derived histograms, per-stream
/// slot timelines, bytes-conservation totals and (when tracing was
/// enabled) the full event timeline.
///
/// Serialized with write_json() as `omnireduce.run_report.v1`, consumed by
/// tools/bench_to_csv.py and validated by tools/validate_telemetry.py.
struct RunReport : CollectiveStats {
  std::string label;

  // --- run parameters worth replotting against ----------------------------
  std::size_t n_workers = 0;
  std::size_t n_aggregators = 0;
  std::size_t tensor_elements = 0;

  // --- bytes-conservation totals (tracer rolling counters) ----------------
  /// Payload bytes observed leaving worker NICs in the trace; equals
  /// sum(worker_data_bytes) + retransmit_payload_bytes on dedicated
  /// deployments (tests/test_telemetry.cpp asserts this).
  std::uint64_t traced_worker_payload_bytes = 0;
  std::uint64_t retransmit_payload_bytes = 0;
  std::uint64_t wire_tx_bytes_total = 0;
  std::uint64_t sim_events_executed = 0;

  // --- distributions and timelines ----------------------------------------
  Histogram message_wire_bytes;
  Histogram round_gap_ns;
  std::vector<StreamTimeline> streams;

  // --- fault-injection outcome (ClusterSpec::faults) -----------------------
  /// True when the run carried an active FaultSpec; the "fault" JSON
  /// section is serialized only then, so unfaulted reports stay
  /// byte-identical to pre-fault-layer runs.
  bool fault_layer = false;
  std::string verdict = "completed";  // core::verdict_name of the outcome
  std::int32_t failed_peer = -1;
  bool failed_peer_is_aggregator = false;
  sim::Time failure_at = 0;
  std::string failure_detail;

  /// Full event timeline (empty unless TelemetryConfig::trace_events).
  Trace trace;

  /// Serialize as a single JSON object. `include_trace` additionally
  /// embeds the Chrome trace under "trace" (can be large).
  void write_json(std::ostream& os, bool include_trace = false) const;
};

/// Write several reports as `{"schema": ..., "reports": [...]}` — the
/// container format bench binaries emit and bench_to_csv.py ingests.
void write_report_array(const std::vector<RunReport>& reports,
                        std::ostream& os);

/// Per-(link, job) traffic share on a weighted-fair fabric link: how many
/// bytes/messages of one tenant crossed one contended interior link.
struct TenantLinkShare {
  std::string link;
  std::string job;
  std::uint64_t tx_bytes = 0;
  std::uint64_t tx_messages = 0;
  std::uint64_t dropped_messages = 0;
};

/// One latency lane of a serving-tier job: a fixed log-spaced histogram of
/// end-to-end request latencies (ns) plus conservative tail quantiles read
/// off the bin upper bounds with histogram_quantile — byte-stable across
/// reruns and engines because the bin layout never depends on the data.
struct ServeLatencyLane {
  std::string name;  // "lookup", "lookup_hit", "lookup_miss", "update"
  Histogram latency_ns;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
};

/// One PS shard's counters inside a ServeReport.
struct ServeShardSummary {
  std::size_t shard = 0;
  std::uint64_t requests = 0;
  std::uint64_t lookups = 0;
  std::uint64_t updates = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t batches = 0;
  double mean_batch_occupancy = 0.0;
  std::uint64_t hot_keys = 0;  // distinct keys written (delta-store size)
  sim::Time busy_ns = 0;       // shard CPU busy time
  double qps = 0.0;  // requests / virtual seconds between first arrival
                     // and last completion (0 when degenerate)
};

/// Telemetry of one serving-tier job (src/serve): spec echo, conservation
/// totals (requests_issued == responses_received, in_flight_at_drain == 0
/// on a clean run — the torture suite asserts both), per-shard counters
/// and the latency lanes. Serialized inside FabricReport under "serve",
/// only when a serving job ran, so training-only fabric reports stay
/// byte-identical to the PR-9 goldens.
struct ServeReport {
  std::string name;
  // --- spec echo (replotting / replay comparison) --------------------------
  std::size_t n_shards = 0;
  std::size_t n_clients = 0;
  std::size_t key_space = 0;
  std::size_t cache_capacity = 0;
  std::string cache_policy;  // "lru" / "lfu" / "none"
  std::string routing;       // "hash" / "range"
  double zipf_alpha = 0.0;
  sim::Time batch_window = 0;
  // --- conservation + cache totals -----------------------------------------
  std::uint64_t requests_issued = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t in_flight_at_drain = 0;
  std::uint64_t lookups = 0;
  std::uint64_t updates = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double hit_rate = 0.0;  // hits / lookups (0 when no lookups)
  sim::Time first_issue = 0;
  sim::Time finish = 0;  // last response received at a client
  std::vector<ServeShardSummary> shards;
  std::vector<ServeLatencyLane> lanes;
};

/// One job's outcome inside a multi-tenant core::Fabric run.
struct FabricJobSummary {
  std::string name;
  /// Job-kind tag of non-collective (custom) jobs, e.g. "serve".
  /// Serialized only when non-empty, so training-job rows keep their
  /// pre-serving byte layout.
  std::string kind;
  bool admitted = true;
  std::string rejection;  // non-empty when admission failed
  double weight = 1.0;
  sim::Time start_at = 0;
  sim::Time finish = 0;  // virtual time the last step completed
  std::size_t steps = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t resyncs = 0;      // join catch-up handshakes
  std::uint64_t stale_drops = 0;  // cross-epoch stragglers dropped
  bool verified = false;
  /// Virtual completion time of each step (absolute) and how many workers
  /// were active in it (elastic membership).
  std::vector<sim::Time> step_completion;
  std::vector<std::size_t> step_active;
};

/// Fabric-level interference report of one multi-tenant run: per-job
/// summaries plus the per-tenant split of every contended link and a Jain
/// fairness index over weight-normalized bytes on the busiest shared link
/// (1.0 = perfectly weighted-fair). Serialized by write_json as
/// `omnireduce.fabric_report.v1`.
struct FabricReport {
  std::string topology;
  std::size_t n_machines = 0;
  std::size_t switch_slots = 0;
  std::vector<FabricJobSummary> jobs;
  std::vector<TenantLinkShare> link_shares;
  double fairness_index = 0.0;
  /// Serving-tier sections, one per serving job (see ServeReport).
  /// Serialized only when non-empty.
  std::vector<ServeReport> serve;

  void write_json(std::ostream& os) const;
};

}  // namespace omr::telemetry
