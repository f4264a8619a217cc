#include "core/run_context.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/fabric.h"
#include "core/stream_layout.h"

namespace omr::core {

// ---------------------------------------------------------------------------
// ReferenceCheck

namespace {

bool same_bits(const tensor::DenseTensor& a, const tensor::DenseTensor& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.values().data(), b.values().data(),
                                   a.size() * sizeof(float)) == 0);
}

}  // namespace

ReferenceCheck::ReferenceCheck(const std::vector<tensor::DenseTensor>& inputs,
                               const Config& cfg,
                               std::vector<std::uint8_t> active)
    : active_(std::move(active)), codec_(cfg.codec.codec) {
  if (std::find(active_.begin(), active_.end(), 0) == active_.end()) {
    active_.clear();  // every worker contributes: no member copies
  }
  if (active_.empty()) {
    reference_ = reference_reduce(inputs, cfg);
    contributors_ = inputs.size();
  } else {
    std::vector<tensor::DenseTensor> members;
    for (std::size_t w = 0; w < inputs.size(); ++w) {
      if (active_[w]) members.push_back(inputs[w]);
    }
    reference_ = reference_reduce(members, cfg);
    contributors_ = members.size();
  }
  if (cfg.codec.enabled()) {
    for (std::size_t w = 0; w < inputs.size(); ++w) {
      if (!active_.empty() && !active_[w]) continue;
      for (float v : inputs[w].values()) {
        input_amax_ = std::max(input_amax_, std::fabs(static_cast<double>(v)));
      }
    }
  }
}

ReferenceCheck::Outcome ReferenceCheck::check(
    const std::vector<tensor::DenseTensor>& results, double base_tol,
    const ErrorFn& error) const {
  Outcome out;
  // A result bitwise equal to the last one evaluated has the same error,
  // so it is skipped: an allreduce leaves every worker the same result.
  const tensor::DenseTensor* last = nullptr;
  for (std::size_t w = 0; w < results.size(); ++w) {
    if (!active_.empty() && !active_[w]) continue;
    const tensor::DenseTensor& result = results[w];
    if (last != nullptr && same_bits(result, *last)) continue;
    last = &result;
    out.max_error = std::max(
        out.max_error, error ? error(result, reference_)
                             : tensor::max_abs_diff(result, reference_));
  }
  double tol = base_tol;
  if (codec_ != compress::WireCodec::kNone) {
    tol += compress::codec_verify_slack(codec_, input_amax_, contributors_);
  }
  out.ok = out.max_error <= tol;
  return out;
}

// ---------------------------------------------------------------------------
// CollectivePlan

CollectivePlan plan_collective(
    const Config& cfg, std::size_t n_elements, net::Network& net,
    const std::vector<net::NicId>& worker_nics,
    const std::vector<net::NicId>& agg_nics,
    const std::vector<net::EndpointId>& agg_eps,
    const std::vector<tensor::DenseTensor>* verify_inputs,
    const std::vector<std::uint8_t>& active) {
  CollectivePlan plan;
  plan.layout = StreamLayout::build(n_elements, cfg);
  plan.agg_eps = agg_eps;
  plan.streams_on_agg.assign(agg_eps.size(), 0);
  plan.owner.reserve(plan.layout.streams.size());
  for (std::size_t s = 0; s < plan.layout.streams.size(); ++s) {
    const auto a = static_cast<std::uint32_t>(s % agg_eps.size());
    plan.owner.push_back(a);
    ++plan.streams_on_agg[a];
  }
  std::vector<net::NicId> active_nics;  // only built under a mask
  for (std::size_t w = 0; w < active.size(); ++w) {
    if (active[w]) active_nics.push_back(worker_nics[w]);
  }
  plan.timeout = size_retransmit_timeout(
      cfg, plan.layout, plan.streams_on_agg, net,
      active.empty() ? worker_nics : active_nics, agg_nics);
  if (verify_inputs != nullptr) plan.check.emplace(*verify_inputs, cfg, active);
  return plan;
}

// ---------------------------------------------------------------------------
// RunContext

namespace {

std::size_t aggregator_nodes(const ClusterSpec& cluster,
                             std::size_t n_workers) {
  return cluster.deployment == Deployment::kColocated
             ? n_workers
             : cluster.n_aggregator_nodes;
}

/// Validate one job's (Config, ClusterSpec) and build the topology it
/// describes: worker NICs first, then the dedicated aggregator NICs.
std::unique_ptr<net::Topology> cluster_topology(const Config& cfg,
                                                std::size_t n_workers,
                                                const ClusterSpec& cluster) {
  if (n_workers == 0) throw std::invalid_argument("no workers");
  require_layout(cfg);
  const std::size_t n_aggs = aggregator_nodes(cluster, n_workers);
  if (n_aggs == 0) {
    throw std::invalid_argument("need at least one aggregator node");
  }
  if (cfg.fixed_point && cfg.op != ReduceOp::kSum) {
    throw std::invalid_argument("fixed-point slots support only sum");
  }
  const FabricConfig& fabric = cluster.fabric;
  if (!fabric.worker_start_offsets.empty() &&
      fabric.worker_start_offsets.size() != n_workers) {
    throw std::invalid_argument("start-offset count != worker count");
  }
  const FaultSpec& faults = cluster.faults;
  // Negated so a NaN is rejected too: enabled() would read it as "off".
  if (!(faults.stragglers.mean_delay_ns >= 0.0)) {
    throw std::invalid_argument("straggler mean delay must be >= 0");
  }
  if (faults.enabled()) {
    if (faults.watchdog <= 0) {
      throw std::invalid_argument(
          "fault injection requires a positive watchdog");
    }
    for (const CrashSpec& c : faults.crashes) {
      if (c.worker >= n_workers) {
        throw std::invalid_argument("crash spec names an unknown worker");
      }
    }
    for (const AggStallSpec& s : faults.agg_stalls) {
      if (s.aggregator >= n_aggs) {
        throw std::invalid_argument("stall spec names an unknown aggregator");
      }
    }
    for (const NicFlapSpec& f : faults.nic_flaps) {
      if (f.index >= (f.on_aggregator ? n_aggs : n_workers)) {
        throw std::invalid_argument("NIC flap names an unknown node");
      }
    }
    if (!faults.link_flaps.empty()) {
      if (!cluster.topology.two_tier()) {
        throw std::invalid_argument("link flaps require a two-tier topology");
      }
      for (const LinkFlapSpec& f : faults.link_flaps) {
        if (f.rack >= cluster.topology.n_racks) {
          throw std::invalid_argument("link flap names an unknown rack");
        }
      }
    }
  }
  const TopologySpec& topo = cluster.topology;
  const std::size_t n_dedicated =
      cluster.deployment == Deployment::kColocated ? 0 : n_aggs;
  return make_topology(topo, fabric.one_way_latency,
                       topo.two_tier()
                           ? resolve_nic_racks(topo, n_workers, n_dedicated)
                           : std::vector<int>{});
}

}  // namespace

RunContext::RunContext(const Config& cfg, std::size_t n_workers,
                       const ClusterSpec& cluster, bool traced)
    : cfg_(cfg),
      cluster_(cluster),
      network_(simulator_, cluster_topology(cfg, n_workers, cluster),
               cluster.fabric.seed) {
  const FabricConfig& fabric = cluster_.fabric;
  const FaultSpec& fault_spec = cluster_.faults;
  if (fabric.lossy() || cluster_.topology.spine_lossy() ||
      fault_spec.needs_recovery()) {
    cfg_.loss_recovery = true;
  }
  apply_fabric_loss(network_, fabric);
  if (traced && cluster_.telemetry.enabled) {
    tracer_ = std::make_unique<telemetry::Tracer>(cluster_.telemetry);
    network_.set_tracer(tracer_.get());
  }
  if (fault_spec.enabled()) {
    faults_ = std::make_unique<FaultController>(fault_spec, tracer_.get());
  }

  const bool colocated = cluster_.deployment == Deployment::kColocated;
  for (std::size_t w = 0; w < n_workers; ++w) {
    worker_nics_.push_back(network_.add_nic({fabric.worker_bandwidth_bps,
                                             fabric.worker_bandwidth_bps}));
    if (tracer_ != nullptr) {
      tracer_->map_nic(worker_nics_[w], telemetry::worker_pid(w));
      tracer_->name_process(telemetry::worker_pid(w),
                            "worker " + std::to_string(w));
    }
  }
  const std::size_t n_aggs = aggregator_nodes(cluster_, n_workers);
  for (std::size_t a = 0; a < n_aggs; ++a) {
    agg_nics_.push_back(colocated
                            ? worker_nics_[a]
                            : network_.add_nic(
                                  {fabric.aggregator_bandwidth_bps,
                                   fabric.aggregator_bandwidth_bps,
                                   fabric.aggregator_rx_overhead_ns}));
    if (tracer_ != nullptr) {
      tracer_->name_process(telemetry::aggregator_pid(a),
                            "aggregator " + std::to_string(a));
      if (!colocated) {
        tracer_->map_nic(agg_nics_[a], telemetry::aggregator_pid(a));
      }
    }
  }

  // Outage windows on the NICs and (two-tier only) per-rack spine links.
  for (const NicFlapSpec& f : fault_spec.nic_flaps) {
    const net::NicId nic =
        f.on_aggregator ? agg_nics_[f.index] : worker_nics_[f.index];
    network_.add_nic_flap(nic, f.at, f.at + f.duration);
  }
  if (!fault_spec.link_flaps.empty()) {
    network_.topology().finalize();  // materialize the lazy link table
    auto* two_tier = dynamic_cast<net::TwoTierFabric*>(&network_.topology());
    for (const LinkFlapSpec& f : fault_spec.link_flaps) {
      const int rack = static_cast<int>(f.rack);
      const net::LinkId id =
          f.downlink ? two_tier->downlink(rack) : two_tier->uplink(rack);
      network_.topology().add_link_flap(id, f.at, f.at + f.duration);
    }
  }

  wiring_ = wire_protocol(cfg_, network_, worker_nics_, agg_nics_,
                          {tracer_.get(), faults_.get()});
}

RunContext::~RunContext() = default;

RunStats RunContext::run_collective(std::vector<tensor::DenseTensor>& tensors,
                                    bool verify, const std::string& label,
                                    std::size_t ordinal) {
  const std::size_t n_workers = worker_nics_.size();
  if (tensors.size() != n_workers) {
    throw std::invalid_argument("tensor count != worker count");
  }
  const std::size_t n = tensors.front().size();
  for (const auto& t : tensors) {
    if (t.size() != n) throw std::invalid_argument("tensor size mismatch");
  }
  // Counter snapshot: the stats below are this collective's deltas.
  const sim::Time t0 = simulator_.now();
  std::vector<std::uint64_t> tx_before;
  tx_before.reserve(n_workers);
  for (net::NicId nic : worker_nics_) {
    tx_before.push_back(network_.nic_stats(nic).tx_messages);
  }
  const std::uint64_t dropped_before = network_.total_dropped();
  const std::vector<telemetry::LinkReport> links_before =
      collect_link_reports(network_);

  std::vector<std::unique_ptr<Worker>>& workers = wiring_.workers;
  std::vector<std::unique_ptr<Aggregator>>& aggs = wiring_.aggregators;
  const CollectivePlan plan =
      plan_collective(cfg_, n, network_, worker_nics_, agg_nics_,
                      wiring_.agg_eps, verify ? &tensors : nullptr);
  for (auto& agg : aggs) agg->begin_collective();
  for (std::size_t s = 0; s < plan.owner.size(); ++s) {
    aggs[plan.owner[s]]->add_stream(static_cast<std::uint32_t>(s),
                                    plan.layout.streams[s]);
  }
  const std::vector<sim::Time>& offsets = cluster_.fabric.worker_start_offsets;
  for (std::size_t w = 0; w < n_workers; ++w) {
    const sim::Time offset = offsets.empty() ? 0 : offsets[w];
    if (offset == 0) {
      workers[w]->start(tensors[w], plan, cluster_.device);
    } else {
      Worker* worker = workers[w].get();
      tensor::DenseTensor* t = &tensors[w];
      const device::DeviceModel* device = &cluster_.device;
      simulator_.schedule_at(t0 + offset, [worker, t, &plan, device]() {
        worker->start(*t, plan, *device);
      });
    }
  }
  // Fault schedules are absolute virtual times: a faulted context runs one
  // collective (Session rejects faults).
  if (faults_ != nullptr) {
    for (const CrashSpec& c : cluster_.faults.crashes) {
      Worker* worker = workers[c.worker].get();
      simulator_.schedule_at(c.at, [worker]() { worker->crash(); });
      if (c.restart_after > 0) {
        simulator_.schedule_at(c.at + c.restart_after,
                               [worker]() { worker->restart(); });
      }
    }
    // Bounded simulated-time watchdog: whatever else goes wrong, an
    // unfinished run turns into a structured verdict at this point and the
    // event queue drains (post-abort, no handler schedules new work).
    FaultController* fc = faults_.get();
    const sim::Time deadline = cluster_.faults.watchdog;
    simulator_.schedule_at(deadline, [fc, &workers, deadline]() {
      if (fc->aborted()) return;
      for (const auto& w : workers) {
        if (!w->done()) {
          fc->watchdog_fired(deadline);
          return;
        }
      }
    });
  }
  simulator_.run();

  RunStats stats;
  stats.rto_ns = plan.timeout.rto;
  stats.round_model_ns = plan.timeout.round_model;
  const bool aborted = faults_ != nullptr && faults_->aborted();
  if (aborted) stats.failure = faults_->failure();
  for (const auto& w : workers) {
    if (!w->done() && !aborted) {
      throw std::logic_error(label + " did not complete (protocol stall)");
    }
    const sim::Time finish = w->done() ? w->finish_time() - t0 : 0;
    stats.worker_finish.push_back(finish);
    stats.worker_data_bytes.push_back(w->data_bytes_sent());
    stats.retransmissions += w->retransmissions();
    stats.acks += w->acks_sent();
    stats.completion_time = std::max(stats.completion_time, finish);
  }
  if (aborted) stats.completion_time = stats.failure.at - t0;
  if (faults_ != nullptr) {
    for (const auto& w : workers) {
      stats.worker_retries.push_back(w->retransmissions());
      stats.worker_fault_stall_ns.push_back(w->fault_stall());
      stats.worker_crashes += w->crashes();
      stats.resyncs += w->resyncs_sent();
    }
  }
  for (const auto& a : aggs) {
    stats.rounds += a->rounds_completed();
    stats.duplicate_resends += a->duplicate_resends();
  }
  if (cfg_.codec.enabled()) {
    stats.codec = compress::codec_name(cfg_.codec.codec);
    double residual_sq = 0.0;
    for (const auto& w : workers) {
      stats.codec_saved_bytes += w->codec_saved_bytes();
      residual_sq += w->codec_residual_sq();
    }
    for (const auto& a : aggs) {
      stats.codec_saved_bytes += a->codec_saved_bytes();
      stats.codec_exact_folds += a->codec_exact_folds();
      stats.codec_requant_folds += a->codec_requant_folds();
    }
    stats.codec_residual_l2 = std::sqrt(residual_sq);
  }
  for (std::size_t w = 0; w < n_workers; ++w) {
    stats.total_messages +=
        network_.nic_stats(worker_nics_[w]).tx_messages - tx_before[w];
  }
  stats.dropped_messages = network_.total_dropped() - dropped_before;
  stats.links = collect_link_reports(network_, &links_before);

  // The span covers the collective as reported: worker finish includes the
  // codec decode tail and device staging after the last event.
  if (tracer_ != nullptr) {
    tracer_->collective_span(t0, t0 + stats.completion_time, ordinal);
  }
  if (verify && !aborted) {
    // Float sums of <= n_workers addends in a different association order:
    // tolerance grows mildly with worker count and value magnitude.
    const ReferenceCheck::Outcome outcome =
        plan.check->check(tensors, 1e-4 * static_cast<double>(n_workers));
    stats.max_error = outcome.max_error;
    stats.verified = outcome.ok;
    if (!stats.verified) {
      throw std::logic_error(label + " result mismatch vs reference");
    }
  }
  return stats;
}

telemetry::RunReport RunContext::report(const std::string& label,
                                        const RunStats& stats,
                                        std::size_t n_elements) const {
  telemetry::RunReport report;
  static_cast<telemetry::CollectiveStats&>(report) = stats;
  report.label = label;
  report.n_workers = n_workers();
  report.n_aggregators = agg_nics_.size();
  report.tensor_elements = n_elements;
  report.sim_events_executed = simulator_.events_executed();
  if (cluster_.faults.enabled()) {
    report.fault_layer = true;
    report.verdict = verdict_name(stats.failure.verdict);
    report.failed_peer = stats.failure.peer;
    report.failed_peer_is_aggregator = stats.failure.peer_is_aggregator;
    report.failure_at = stats.failure.at;
    report.failure_detail = stats.failure.detail;
  }
  if (tracer_ != nullptr) {
    for (std::size_t w = 0; w < n_workers(); ++w) {
      report.traced_worker_payload_bytes +=
          tracer_->tx_payload_bytes(telemetry::worker_pid(w));
    }
    report.retransmit_payload_bytes = tracer_->retransmit_payload_bytes();
    report.wire_tx_bytes_total = tracer_->tx_wire_bytes_total();
    report.message_wire_bytes = tracer_->message_wire_hist();
    report.round_gap_ns = tracer_->round_gap_hist();
    report.streams = tracer_->stream_timelines();
    report.trace = tracer_->snapshot_trace();
  }
  return report;
}

}  // namespace omr::core
