#include "core/tenancy.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/aggregator.h"
#include "core/fabric.h"
#include "core/messages.h"
#include "core/run_context.h"
#include "core/stream_layout.h"
#include "core/wiring.h"
#include "core/worker.h"

namespace omr::core {

namespace {

/// Line rate of every machine NIC (bps, both directions).
constexpr double kMachineBandwidthBps = 10e9;

/// Job control-plane message. Control traffic rides the simulated fabric
/// itself (64-byte frames between a training job's controller and its agents), so
/// every cross-machine effect of step sequencing flows through
/// Network::send and pays wire time like data traffic.
struct JobCtl final : net::Message {
  enum Kind : std::uint8_t {
    kSetup,      // controller -> agg agent: open step `step`
    kSetupAck,   // agg agent -> controller: step slots registered
    kStart,      // controller -> worker agent: begin step `step`
    kDone,       // worker agent -> controller: step finished + counters
    kJoin,       // controller -> worker agent: catch up, then join `step`
    kJoinReady,  // worker agent -> controller: catch-up complete
  };
  Kind kind = kStart;
  std::uint32_t step = 0;
  std::uint32_t slot = 0;  // sender's job-local worker/aggregator index
  // kDone payload: the step's completion time and worker counters
  // (per-collective counters reset at the next start(), so the agent
  // snapshots them the moment the worker finishes).
  sim::Time finish = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t retransmissions = 0;

  std::size_t wire_bytes() const override { return 64; }
};

/// The fabric's topology: one NIC per machine, each machine in the rack
/// machine_racks gives it (a contiguous fill when empty), by the rule that
/// places worker NICs.
std::unique_ptr<net::Topology> fabric_topology(const TenantFabricSpec& spec) {
  if (spec.n_machines == 0) {
    throw std::invalid_argument("fabric needs at least one machine");
  }
  if (spec.topology.spine_lossy()) {
    // Fabric-level loss draws one shared RNG stream, which the multi-job
    // determinism guarantees cannot preserve.
    throw std::invalid_argument(
        "multi-tenant fabric does not support a lossy spine");
  }
  if (!spec.topology.two_tier()) {
    return make_topology(spec.topology, spec.one_way_latency, {});
  }
  if (!spec.machine_racks.empty() &&
      spec.machine_racks.size() != spec.n_machines) {
    throw std::invalid_argument("machine_racks size != machine count");
  }
  TopologySpec topo = spec.topology;
  topo.worker_racks = spec.machine_racks;
  return make_topology(topo, spec.one_way_latency,
                       resolve_nic_racks(topo, spec.n_machines, 0));
}

/// A training tenant: one collective per step over the step's active
/// workers, sequenced by a controller plus one agent per worker and per
/// aggregator, all real endpoints on the job's machines.
class TrainingJob final : public FabricJob {
 public:
  /// Validate `spec` against the fabric's machine count and `tensors`, and
  /// plan every step's membership and the job's switch-slot demand.
  /// Throws std::invalid_argument on a malformed spec; attaches nothing.
  TrainingJob(JobSpec spec, Fabric::StepTensors& tensors,
              std::size_t n_machines, const device::DeviceModel& device);
  ~TrainingJob() override;

  const JobSpec& spec() const { return spec_; }
  /// Switch slots the job needs: its peak stream count over all steps.
  std::size_t slot_demand() const { return slot_demand_; }

  void attach(net::Network& net,
              const std::vector<net::NicId>& machine_nics) override;
  std::vector<net::EndpointId> endpoints() const override;
  void kickoff() override;
  bool done() const override { return done_; }
  void finalize() override;
  void fill_report(telemetry::FabricJobSummary& row,
                   telemetry::FabricReport& out) const override;

 private:
  /// One step's collective plan plus its membership. The membership is
  /// planned at construction and the collective at attach, so the in-run
  /// control plane only reads immutable plans.
  struct StepPlan : CollectivePlan {
    std::vector<std::uint8_t> active;  // per job worker
    std::size_t active_count = 0;
    std::vector<std::size_t> joiners;  // workers joining before this step
    std::size_t elements = 0;          // per active worker's tensor
  };
  class WorkerAgent;
  class AggAgent;
  class Controller;

  JobSpec spec_;
  Fabric::StepTensors& tensors_;
  const device::DeviceModel& device_;
  std::vector<StepPlan> steps_;
  std::size_t slot_demand_ = 0;

  net::Network* net_ = nullptr;
  ProtocolWiring wiring_;
  std::vector<std::unique_ptr<WorkerAgent>> worker_agents_;
  std::vector<std::unique_ptr<AggAgent>> agg_agents_;
  std::unique_ptr<Controller> controller_;

  // Outcome, accumulated by the controller as steps complete.
  bool done_ = false;
  sim::Time finish_ = 0;
  std::vector<sim::Time> step_completion_;
  std::uint64_t data_bytes_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t stale_drops_ = 0;
  bool verified_ = false;
};

// ---------------------------------------------------------------------------
// Control-plane endpoints

/// Per-worker agent: receives kStart/kJoin from the controller, drives the
/// Worker, and reports kDone the moment the worker's on_done hook fires.
/// Lives on the same NIC as its worker, so its direct Worker calls stay
/// on one machine.
class TrainingJob::WorkerAgent final : public net::Endpoint {
 public:
  WorkerAgent(TrainingJob& job, std::size_t w) : job_(job), w_(w) {}

  void on_message(net::EndpointId from, const net::MessagePtr& msg) override;
  /// Worker::set_on_done hook: snapshot the step's counters and report.
  void worker_done();

  net::EndpointId ep = -1;

 private:
  void begin_join(std::uint32_t step);
  void send_ready();

  TrainingJob& job_;
  std::size_t w_;
  std::uint32_t step_ = 0;
  std::size_t resyncs_pending_ = 0;
};

/// Per-aggregator agent: opens each step's slots on kSetup. The explicit
/// ack (rather than the controller calling into the aggregator directly)
/// both keeps all cross-machine effects on the simulated wire and
/// guarantees no worker data can race the slot registration.
class TrainingJob::AggAgent final : public net::Endpoint {
 public:
  AggAgent(TrainingJob& job, std::size_t a) : job_(job), a_(a) {}

  void on_message(net::EndpointId from, const net::MessagePtr& msg) override;

  net::EndpointId ep = -1;
  // Per-collective aggregator counters of completed steps, banked at each
  // kSetup before begin_collective() resets them.
  std::uint64_t rounds = 0;
  std::uint64_t resyncs = 0;

 private:
  TrainingJob& job_;
  std::size_t a_;
};

/// Per-job sequencer: joins -> setup -> start for every step, then the
/// next step once all active workers reported done.
class TrainingJob::Controller final : public net::Endpoint {
 public:
  explicit Controller(TrainingJob& job) : job_(job) {}

  void kickoff() { begin_step(0); }
  void on_message(net::EndpointId from, const net::MessagePtr& msg) override;

  net::EndpointId ep = -1;

 private:
  void begin_step(std::size_t s);
  void send_setup();
  void start_workers();

  TrainingJob& job_;
  std::size_t step_ = 0;
  std::size_t joins_pending_ = 0;
  std::size_t acks_pending_ = 0;
  std::size_t dones_pending_ = 0;
  sim::Time step_finish_ = 0;
};

// --- WorkerAgent -----------------------------------------------------------

void TrainingJob::WorkerAgent::on_message(net::EndpointId /*from*/,
                                          const net::MessagePtr& msg) {
  if (net::message_cast<ResyncResponse>(msg.get()) != nullptr) {
    // One stream's worth of join catch-up state arrived (the bytes were
    // charged on the wire; the payload itself is superseded by the fresh
    // step input the join hands the worker).
    if (resyncs_pending_ == 0) {
      throw std::logic_error("unexpected resync response at worker agent");
    }
    if (--resyncs_pending_ == 0) send_ready();
    return;
  }
  const auto* ctl = net::message_cast<JobCtl>(msg.get());
  if (ctl == nullptr) {
    throw std::logic_error("worker agent received unknown message");
  }
  switch (ctl->kind) {
    case JobCtl::kStart: {
      step_ = ctl->step;
      const StepPlan& plan = job_.steps_[step_];
      Worker& worker = *job_.wiring_.workers[w_];
      worker.set_epoch(static_cast<std::uint8_t>(step_ & 0xff));
      worker.start(job_.tensors_[step_][w_], plan, job_.device_);
      return;
    }
    case JobCtl::kJoin:
      step_ = ctl->step;
      begin_join(ctl->step);
      return;
    default:
      throw std::logic_error("worker agent received unexpected control kind");
  }
}

void TrainingJob::WorkerAgent::send_ready() {
  auto ready = std::make_shared<JobCtl>();
  ready->kind = JobCtl::kJoinReady;
  ready->step = step_;
  ready->slot = static_cast<std::uint32_t>(w_);
  job_.net_->send(ep, job_.controller_->ep, std::move(ready));
}

void TrainingJob::WorkerAgent::begin_join(std::uint32_t step) {
  // Catch up on the state the job built while we were absent: fetch every
  // stream's last emitted result of the previous step from its owning
  // aggregator — the same ResyncRequest handshake a crash-restarted worker
  // uses, here modeling the state transfer a late joiner needs before it
  // can contribute.
  const StepPlan& prev = job_.steps_[step - 1];
  resyncs_pending_ = prev.layout.streams.size();
  if (resyncs_pending_ == 0) {
    send_ready();
    return;
  }
  for (std::size_t s = 0; s < prev.layout.streams.size(); ++s) {
    auto rq = std::make_shared<ResyncRequest>();
    rq->stream = static_cast<std::uint32_t>(s);
    rq->wid = static_cast<std::uint32_t>(w_);
    job_.net_->send(ep, prev.owner_ep(s), std::move(rq));
  }
}

void TrainingJob::WorkerAgent::worker_done() {
  const Worker& worker = *job_.wiring_.workers[w_];
  auto done = std::make_shared<JobCtl>();
  done->kind = JobCtl::kDone;
  done->step = step_;
  done->slot = static_cast<std::uint32_t>(w_);
  done->finish = worker.finish_time();
  done->data_bytes = worker.data_bytes_sent();
  done->retransmissions = worker.retransmissions();
  job_.net_->send(ep, job_.controller_->ep, std::move(done));
}

// --- AggAgent --------------------------------------------------------------

void TrainingJob::AggAgent::on_message(net::EndpointId /*from*/,
                                       const net::MessagePtr& msg) {
  const auto* ctl = net::message_cast<JobCtl>(msg.get());
  if (ctl == nullptr || ctl->kind != JobCtl::kSetup) {
    throw std::logic_error("aggregator agent expects only setup messages");
  }
  Aggregator& agg = *job_.wiring_.aggregators[a_];
  // Bank the finished step's per-collective counters before the reset.
  rounds += agg.rounds_completed();
  resyncs += agg.resyncs_served();
  agg.begin_collective();
  agg.set_epoch(static_cast<std::uint8_t>(ctl->step & 0xff));
  const StepPlan& plan = job_.steps_[ctl->step];
  agg.set_active_workers(plan.active);
  for (std::size_t s = 0; s < plan.owner.size(); ++s) {
    if (plan.owner[s] != a_) continue;
    agg.add_stream(static_cast<std::uint32_t>(s), plan.layout.streams[s]);
  }
  auto ack = std::make_shared<JobCtl>();
  ack->kind = JobCtl::kSetupAck;
  ack->step = ctl->step;
  ack->slot = static_cast<std::uint32_t>(a_);
  job_.net_->send(ep, job_.controller_->ep, std::move(ack));
}

// --- Controller ------------------------------------------------------------

void TrainingJob::Controller::begin_step(std::size_t s) {
  step_ = s;
  step_finish_ = 0;
  const StepPlan& plan = job_.steps_[s];
  joins_pending_ = plan.joiners.size();
  if (joins_pending_ == 0) {
    send_setup();
    return;
  }
  for (std::size_t w : plan.joiners) {
    auto join = std::make_shared<JobCtl>();
    join->kind = JobCtl::kJoin;
    join->step = static_cast<std::uint32_t>(s);
    join->slot = static_cast<std::uint32_t>(w);
    job_.net_->send(ep, job_.worker_agents_[w]->ep, std::move(join));
  }
}

void TrainingJob::Controller::send_setup() {
  acks_pending_ = job_.agg_agents_.size();
  for (const auto& agent : job_.agg_agents_) {
    auto setup = std::make_shared<JobCtl>();
    setup->kind = JobCtl::kSetup;
    setup->step = static_cast<std::uint32_t>(step_);
    job_.net_->send(ep, agent->ep, std::move(setup));
  }
}

void TrainingJob::Controller::start_workers() {
  const StepPlan& plan = job_.steps_[step_];
  dones_pending_ = plan.active_count;
  for (std::size_t w = 0; w < plan.active.size(); ++w) {
    if (!plan.active[w]) continue;
    auto start = std::make_shared<JobCtl>();
    start->kind = JobCtl::kStart;
    start->step = static_cast<std::uint32_t>(step_);
    start->slot = static_cast<std::uint32_t>(w);
    job_.net_->send(ep, job_.worker_agents_[w]->ep, std::move(start));
  }
}

void TrainingJob::Controller::on_message(net::EndpointId /*from*/,
                                         const net::MessagePtr& msg) {
  const auto* ctl = net::message_cast<JobCtl>(msg.get());
  if (ctl == nullptr) {
    throw std::logic_error("job controller received unknown message");
  }
  switch (ctl->kind) {
    case JobCtl::kJoinReady:
      if (joins_pending_ == 0) {
        throw std::logic_error("unexpected join-ready");
      }
      if (--joins_pending_ == 0) send_setup();
      return;
    case JobCtl::kSetupAck:
      if (acks_pending_ == 0) {
        throw std::logic_error("unexpected setup ack");
      }
      if (--acks_pending_ == 0) start_workers();
      return;
    case JobCtl::kDone: {
      if (dones_pending_ == 0) {
        throw std::logic_error("unexpected step-done");
      }
      job_.data_bytes_ += ctl->data_bytes;
      job_.retransmissions_ += ctl->retransmissions;
      step_finish_ = std::max(step_finish_, ctl->finish);
      if (--dones_pending_ > 0) return;
      job_.step_completion_.push_back(step_finish_);
      job_.finish_ = step_finish_;
      if (step_ + 1 < job_.steps_.size()) {
        begin_step(step_ + 1);
      } else {
        job_.done_ = true;
      }
      return;
    }
    default:
      throw std::logic_error("job controller received unexpected kind");
  }
}

// --- TrainingJob -----------------------------------------------------------

TrainingJob::TrainingJob(JobSpec spec, Fabric::StepTensors& tensors,
                         std::size_t n_machines,
                         const device::DeviceModel& device)
    : spec_(std::move(spec)), tensors_(tensors), device_(device) {
  const std::size_t n_workers = spec_.worker_machines.size();
  if (n_workers == 0) throw std::invalid_argument("job has no workers");
  if (spec_.aggregator_machines.empty()) {
    throw std::invalid_argument("job has no aggregators");
  }
  for (std::size_t m : spec_.worker_machines) {
    if (m >= n_machines) {
      throw std::invalid_argument("worker machine out of range");
    }
  }
  for (std::size_t m : spec_.aggregator_machines) {
    if (m >= n_machines) {
      throw std::invalid_argument("aggregator machine out of range");
    }
  }
  if (tensors.empty()) throw std::invalid_argument("job has no steps");
  for (const auto& step : tensors) {
    if (step.size() != n_workers) {
      throw std::invalid_argument("step tensor count != worker count");
    }
  }
  if (!spec_.initial_active.empty() &&
      spec_.initial_active.size() != n_workers) {
    throw std::invalid_argument("initial_active size != worker count");
  }
  if (std::any_of(spec_.initial_active.begin(), spec_.initial_active.end(),
                  [](std::uint8_t a) { return a > 1; })) {
    throw std::invalid_argument("initial_active entries must be 0 or 1");
  }

  // --- membership schedule -> per-step active sets -------------------------
  const std::size_t n_steps = tensors.size();
  std::vector<std::uint8_t> active =
      spec_.initial_active.empty() ? std::vector<std::uint8_t>(n_workers, 1)
                                   : spec_.initial_active;
  std::vector<JobMembershipEvent> events = spec_.membership;
  std::stable_sort(
      events.begin(), events.end(),
      [](const JobMembershipEvent& a, const JobMembershipEvent& b) {
        return a.before_step < b.before_step;
      });
  for (const JobMembershipEvent& e : events) {
    if (e.worker >= n_workers) {
      throw std::invalid_argument("membership event names unknown worker");
    }
    if (e.before_step == 0 || e.before_step >= n_steps) {
      throw std::invalid_argument(
          "membership event must fall between steps (1 <= before_step < "
          "steps); fold step-0 membership into initial_active");
    }
  }
  steps_.resize(n_steps);
  std::size_t ev = 0;
  for (std::size_t s = 0; s < n_steps; ++s) {
    StepPlan& plan = steps_[s];
    for (; ev < events.size() && events[ev].before_step == s; ++ev) {
      const JobMembershipEvent& e = events[ev];
      if (e.join == static_cast<bool>(active[e.worker])) {
        throw std::invalid_argument(e.join
                                        ? "join of an already-active worker"
                                        : "leave of an inactive worker");
      }
      active[e.worker] = e.join ? 1 : 0;
      if (e.join) plan.joiners.push_back(e.worker);
    }
    plan.active = active;
    plan.active_count = static_cast<std::size_t>(
        std::count(active.begin(), active.end(), std::uint8_t{1}));
    if (plan.active_count == 0) {
      throw std::invalid_argument("step has no active workers");
    }

    // Step geometry: the active members' (identically sized) tensors.
    const auto first = std::find(active.begin(), active.end(), 1);
    plan.elements = tensors[s][first - active.begin()].size();
    for (std::size_t w = 0; w < n_workers; ++w) {
      if (active[w] && tensors[s][w].size() != plan.elements) {
        throw std::invalid_argument("tensor size mismatch within a step");
      }
    }
    slot_demand_ = std::max(
        slot_demand_,
        StreamLayout::build(plan.elements, spec_.config).streams.size());
  }
}

TrainingJob::~TrainingJob() = default;

void TrainingJob::attach(net::Network& net,
                         const std::vector<net::NicId>& machine_nics) {
  net_ = &net;
  std::vector<net::NicId> worker_nics;
  for (std::size_t m : spec_.worker_machines) {
    worker_nics.push_back(machine_nics[m]);
  }
  std::vector<net::NicId> agg_nics;
  for (std::size_t m : spec_.aggregator_machines) {
    agg_nics.push_back(machine_nics[m]);
  }
  // Protocol endpoints, then the control plane on the first worker's
  // machine, then one agent per worker and per aggregator.
  wiring_ = wire_protocol(spec_.config, net, worker_nics, agg_nics);
  controller_ = std::make_unique<Controller>(*this);
  controller_->ep = net.attach(controller_.get(), worker_nics.front());
  for (std::size_t w = 0; w < worker_nics.size(); ++w) {
    worker_agents_.push_back(std::make_unique<WorkerAgent>(*this, w));
    WorkerAgent* agent = worker_agents_.back().get();
    agent->ep = net.attach(agent, worker_nics[w]);
    wiring_.workers[w]->set_on_done(
        [agent](Worker&) { agent->worker_done(); });
  }
  for (std::size_t a = 0; a < agg_nics.size(); ++a) {
    agg_agents_.push_back(std::make_unique<AggAgent>(*this, a));
    agg_agents_.back()->ep = net.attach(agg_agents_.back().get(), agg_nics[a]);
  }

  // Each step is planned as a single-job collective over its active
  // members: same stream ownership, timeout and reference check.
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    StepPlan& step = steps_[s];
    static_cast<CollectivePlan&>(step) = plan_collective(
        spec_.config, step.elements, net, worker_nics, agg_nics,
        wiring_.agg_eps, spec_.verify ? &tensors_[s] : nullptr, step.active);
  }
}

std::vector<net::EndpointId> TrainingJob::endpoints() const {
  std::vector<net::EndpointId> eps = wiring_.worker_eps;
  eps.insert(eps.end(), wiring_.agg_eps.begin(), wiring_.agg_eps.end());
  for (const auto& agent : worker_agents_) eps.push_back(agent->ep);
  for (const auto& agent : agg_agents_) eps.push_back(agent->ep);
  eps.push_back(controller_->ep);
  return eps;
}

void TrainingJob::kickoff() { controller_->kickoff(); }

void TrainingJob::finalize() {
  // Final counter sweep: agents banked every completed step's aggregator
  // counters except the last (no further kSetup resets them), which is
  // still live in the aggregators. Runs on the caller's thread, post-run.
  for (std::size_t a = 0; a < wiring_.aggregators.size(); ++a) {
    const Aggregator& agg = *wiring_.aggregators[a];
    rounds_ += agg_agents_[a]->rounds + agg.rounds_completed();
    resyncs_ += agg_agents_[a]->resyncs + agg.resyncs_served();
    stale_drops_ += agg.stale_drops();
  }
  for (const auto& w : wiring_.workers) stale_drops_ += w->stale_results();

  if (!spec_.verify) return;
  const Config& cfg = spec_.config;
  // A deterministic-reduction sum without value quantization folds in
  // ascending worker-id order — exactly reference_reduce's association —
  // so elastic runs are checked for bit-exact equality.
  const bool exact = cfg.deterministic_reduction &&
                     cfg.op == ReduceOp::kSum && !cfg.codec.enabled() &&
                     !cfg.fixed_point;
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const StepPlan& plan = steps_[s];
    const double base_tol =
        exact ? 0.0 : 1e-4 * static_cast<double>(plan.active_count);
    if (!plan.check->check(tensors_[s], base_tol).ok) {
      throw std::logic_error("job \"" + spec_.name + "\" step " +
                             std::to_string(s) +
                             " result mismatch vs reference");
    }
  }
  verified_ = true;
}

void TrainingJob::fill_report(telemetry::FabricJobSummary& row,
                              telemetry::FabricReport& /*out*/) const {
  row.finish = finish_;
  row.steps = steps_.size();
  row.data_bytes = data_bytes_;
  row.rounds = rounds_;
  row.retransmissions = retransmissions_;
  row.resyncs = resyncs_;
  row.stale_drops = stale_drops_;
  row.verified = verified_;
  row.step_completion = step_completion_;
  for (const StepPlan& plan : steps_) {
    row.step_active.push_back(plan.active_count);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Fabric

Fabric::Fabric(TenantFabricSpec spec)
    : spec_(std::move(spec)),
      network_(simulator_, fabric_topology(spec_), spec_.seed),
      slot_pool_(spec_.switch_slots) {
  machine_nics_.reserve(spec_.n_machines);
  for (std::size_t m = 0; m < spec_.n_machines; ++m) {
    machine_nics_.push_back(
        network_.add_nic({kMachineBandwidthBps, kMachineBandwidthBps}));
  }
}

Fabric::~Fabric() = default;

int Fabric::add_job(JobSpec spec, StepTensors& tensors) {
  if (ran_) throw std::logic_error("add_job after run");
  net::check_tenant_weight(spec.weight);
  auto job = std::make_unique<TrainingJob>(std::move(spec), tensors,
                                           spec_.n_machines, spec_.device);
  const JobSpec& js = job->spec();
  const int index = static_cast<int>(tenants_.size());
  Tenant tenant{{js.name, js.weight, js.start_at}, job.get(), {}};
  // Jobs aggregating on the switch data plane consume programmable-switch
  // slots; the pool partitions them per job and rejects what cannot fit.
  if (js.config.switch_multicast &&
      !slot_pool_.reserve(index, job->slot_demand())) {
    tenant.rejection = "switch slot pool exhausted: need " +
                       std::to_string(job->slot_demand()) + ", available " +
                       std::to_string(slot_pool_.available()) + " of " +
                       std::to_string(slot_pool_.total());
  } else {
    job->attach(network_, machine_nics_);
  }
  tenants_.push_back(std::move(tenant));
  training_jobs_.push_back(std::move(job));
  return index;
}

int Fabric::add_custom_job(const CustomJobSpec& spec, FabricJob& job) {
  if (ran_) throw std::logic_error("add_custom_job after run");
  if (spec.name.empty()) {
    throw std::invalid_argument("custom job needs a name");
  }
  net::check_tenant_weight(spec.weight);
  job.attach(network_, machine_nics_);
  tenants_.push_back({spec, &job, {}});
  return static_cast<int>(tenants_.size()) - 1;
}

void Fabric::run() {
  if (ran_) throw std::logic_error("Fabric::run called twice");
  ran_ = true;
  if (tenants_.empty()) return;

  // Tenant registration: tenant id == tenant index (rejected jobs keep
  // their id but never send). A single tenant keeps the single-tenant fast
  // path — links then schedule byte-identically to a plain engine run.
  std::vector<double> weights;
  weights.reserve(tenants_.size());
  for (const Tenant& t : tenants_) weights.push_back(t.spec.weight);
  network_.set_tenants(std::move(weights));
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (!tenants_[i].admitted()) continue;
    for (net::EndpointId e : tenants_[i].job->endpoints()) {
      network_.set_endpoint_tenant(e, static_cast<int>(i));
    }
  }

  // Kickoffs fire in tenant-index order.
  for (const Tenant& t : tenants_) {
    if (!t.admitted()) continue;
    FabricJob* job = t.job;
    if (t.spec.start_at == 0) {
      job->kickoff();
    } else {
      simulator_.schedule_at(t.spec.start_at, [job] { job->kickoff(); });
    }
  }
  simulator_.run();

  for (const Tenant& t : tenants_) {
    if (!t.admitted()) continue;
    if (!t.job->done()) {
      throw std::logic_error("job \"" + t.spec.name +
                             "\" did not complete (protocol stall)");
    }
    t.job->finalize();
  }
}

telemetry::FabricReport Fabric::report() const {
  const net::Topology& topo = network_.topology();
  telemetry::FabricReport out;
  out.topology = topo.kind();
  out.n_machines = spec_.n_machines;
  out.switch_slots = spec_.switch_slots;
  for (const Tenant& t : tenants_) {
    telemetry::FabricJobSummary row;
    row.name = t.spec.name;
    row.admitted = t.admitted();
    row.rejection = t.rejection;
    row.weight = t.spec.weight;
    row.start_at = t.spec.start_at;
    t.job->fill_report(row, out);
    out.jobs.push_back(std::move(row));
  }

  // Per-(link, tenant) traffic split plus a Jain fairness index over the
  // busiest contended link's weight-normalized bytes.
  double best_total = 0.0;
  std::vector<double> best_shares;
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const auto id = static_cast<net::LinkId>(l);
    std::vector<double> shares;
    double total = 0.0;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const net::LinkStats& st =
          network_.tenant_link_stats(id, static_cast<int>(i));
      if (st.tx_bytes == 0 && st.tx_messages == 0 &&
          st.dropped_messages == 0) {
        continue;
      }
      telemetry::TenantLinkShare row;
      row.link = topo.link_name(id);
      row.job = tenants_[i].spec.name;
      row.tx_bytes = st.tx_bytes;
      row.tx_messages = st.tx_messages;
      row.dropped_messages = st.dropped_messages;
      out.link_shares.push_back(std::move(row));
      shares.push_back(static_cast<double>(st.tx_bytes) /
                       tenants_[i].spec.weight);
      total += static_cast<double>(st.tx_bytes);
    }
    if (shares.size() >= 2 && total > best_total) {
      best_total = total;
      best_shares = std::move(shares);
    }
  }
  if (best_shares.size() >= 2) {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (double x : best_shares) {
      sum += x;
      sum_sq += x * x;
    }
    out.fairness_index =
        (sum * sum) / (static_cast<double>(best_shares.size()) * sum_sq);
  }
  return out;
}

}  // namespace omr::core
