#include "core/tenancy.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/aggregator.h"
#include "core/messages.h"
#include "core/run_context.h"
#include "core/stream_layout.h"
#include "core/wiring.h"
#include "core/worker.h"

namespace omr::core {

namespace {

/// Job control-plane message. Control traffic rides the simulated fabric
/// itself (64-byte frames between the JobController and its agents), so
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
  std::uint64_t acks = 0;
  std::uint64_t retransmissions = 0;

  std::size_t wire_bytes() const override { return 64; }
};

std::vector<int> resolve_machine_racks(const TenantFabricSpec& spec) {
  if (!spec.topology.two_tier()) return {};
  std::vector<int> racks(spec.n_machines, 0);
  if (!spec.machine_racks.empty()) {
    if (spec.machine_racks.size() != spec.n_machines) {
      throw std::invalid_argument("machine_racks size != machine count");
    }
    racks = spec.machine_racks;
    for (int r : racks) {
      if (r < 0 || static_cast<std::size_t>(r) >= spec.topology.n_racks) {
        throw std::invalid_argument("machine rack out of range");
      }
    }
    return racks;
  }
  for (std::size_t i = 0; i < spec.n_machines; ++i) {
    racks[i] = static_cast<int>(i * spec.topology.n_racks / spec.n_machines);
  }
  return racks;
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-job state

struct Fabric::JobState {
  /// One step's collective plan plus its membership, precomputed at
  /// add_job so the in-run control plane only reads immutable plans.
  struct StepPlan : CollectivePlan {
    std::vector<std::uint8_t> active;  // per job worker
    std::size_t active_count = 0;
    std::vector<std::size_t> joiners;  // workers joining before this step
  };

  JobSpec spec;
  int index = 0;
  bool admitted = true;
  std::string rejection;
  StepTensors* tensors = nullptr;
  const device::DeviceModel* device = nullptr;
  net::Network* net = nullptr;
  std::size_t controller_machine = 0;

  std::vector<StepPlan> steps;

  ProtocolWiring wiring;
  std::vector<std::unique_ptr<WorkerAgent>> worker_agents;
  std::vector<std::unique_ptr<AggAgent>> agg_agents;
  std::unique_ptr<JobController> controller;
  net::EndpointId controller_ep = -1;

  // Outcome, accumulated by the controller as steps complete.
  bool done = false;
  sim::Time finish = 0;
  std::vector<sim::Time> step_completion;
  std::uint64_t data_bytes = 0;
  std::uint64_t acks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t rounds = 0;
  std::uint64_t duplicate_resends = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t stale_drops = 0;
  bool verified = false;
};

// ---------------------------------------------------------------------------
// Control-plane endpoints

/// Per-worker agent: receives kStart/kJoin from the controller, drives the
/// Worker, and reports kDone the moment the worker's on_done hook fires.
/// Lives on the same NIC as its worker, so its direct Worker calls stay
/// on one machine.
class Fabric::WorkerAgent final : public net::Endpoint {
 public:
  WorkerAgent(JobState& job, std::size_t w) : job_(job), w_(w) {}

  void on_message(net::EndpointId from, const net::MessagePtr& msg) override;
  /// Worker::set_on_done hook: snapshot the step's counters and report.
  void worker_done();

  net::EndpointId ep = -1;

 private:
  void begin_join(std::uint32_t step);
  void send_ready();

  JobState& job_;
  std::size_t w_;
  std::uint32_t step_ = 0;
  std::size_t resyncs_pending_ = 0;
};

/// Per-aggregator agent: opens each step's slots on kSetup. The explicit
/// ack (rather than the controller calling into the aggregator directly)
/// both keeps all cross-machine effects on the simulated wire and
/// guarantees no worker data can race the slot registration.
class Fabric::AggAgent final : public net::Endpoint {
 public:
  AggAgent(JobState& job, std::size_t a) : job_(job), a_(a) {}

  void on_message(net::EndpointId from, const net::MessagePtr& msg) override;

  net::EndpointId ep = -1;
  // Per-collective aggregator counters of completed steps, banked at each
  // kSetup before begin_collective() resets them.
  std::uint64_t rounds = 0;
  std::uint64_t duplicate_resends = 0;
  std::uint64_t resyncs = 0;

 private:
  JobState& job_;
  std::size_t a_;
};

/// Per-job sequencer: joins -> setup -> start for every step, then the
/// next step once all active workers reported done.
class Fabric::JobController final : public net::Endpoint {
 public:
  explicit JobController(JobState& job) : job_(job) {}

  void kickoff() { begin_step(0); }
  void on_message(net::EndpointId from, const net::MessagePtr& msg) override;

  net::EndpointId ep = -1;

 private:
  void begin_step(std::size_t s);
  void send_setup();
  void start_workers();

  JobState& job_;
  std::size_t step_ = 0;
  std::size_t joins_pending_ = 0;
  std::size_t acks_pending_ = 0;
  std::size_t dones_pending_ = 0;
  sim::Time step_finish_ = 0;
};

// --- WorkerAgent -----------------------------------------------------------

void Fabric::WorkerAgent::on_message(net::EndpointId /*from*/,
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
      const JobState::StepPlan& plan = job_.steps[step_];
      Worker& worker = *job_.wiring.workers[w_];
      worker.set_epoch(static_cast<std::uint8_t>(step_ & 0xff));
      worker.start((*job_.tensors)[step_][w_], plan, *job_.device);
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

void Fabric::WorkerAgent::send_ready() {
  auto ready = std::make_shared<JobCtl>();
  ready->kind = JobCtl::kJoinReady;
  ready->step = step_;
  ready->slot = static_cast<std::uint32_t>(w_);
  job_.net->send(ep, job_.controller->ep, std::move(ready));
}

void Fabric::WorkerAgent::begin_join(std::uint32_t step) {
  // Catch up on the state the job built while we were absent: fetch every
  // stream's last emitted result of the previous step from its owning
  // aggregator — the same ResyncRequest handshake a crash-restarted worker
  // uses, here modeling the state transfer a late joiner needs before it
  // can contribute.
  const JobState::StepPlan& prev = job_.steps[step - 1];
  resyncs_pending_ = prev.layout.streams.size();
  if (resyncs_pending_ == 0) {
    send_ready();
    return;
  }
  for (std::size_t s = 0; s < prev.layout.streams.size(); ++s) {
    auto rq = std::make_shared<ResyncRequest>();
    rq->stream = static_cast<std::uint32_t>(s);
    rq->wid = static_cast<std::uint32_t>(w_);
    job_.net->send(ep, prev.owner_ep(s), std::move(rq));
  }
}

void Fabric::WorkerAgent::worker_done() {
  const Worker& worker = *job_.wiring.workers[w_];
  auto done = std::make_shared<JobCtl>();
  done->kind = JobCtl::kDone;
  done->step = step_;
  done->slot = static_cast<std::uint32_t>(w_);
  done->finish = worker.finish_time();
  done->data_bytes = worker.data_bytes_sent();
  done->acks = worker.acks_sent();
  done->retransmissions = worker.retransmissions();
  job_.net->send(ep, job_.controller->ep, std::move(done));
}

// --- AggAgent --------------------------------------------------------------

void Fabric::AggAgent::on_message(net::EndpointId /*from*/,
                                  const net::MessagePtr& msg) {
  const auto* ctl = net::message_cast<JobCtl>(msg.get());
  if (ctl == nullptr || ctl->kind != JobCtl::kSetup) {
    throw std::logic_error("aggregator agent expects only setup messages");
  }
  Aggregator& agg = *job_.wiring.aggregators[a_];
  // Bank the finished step's per-collective counters before the reset.
  rounds += agg.rounds_completed();
  duplicate_resends += agg.duplicate_resends();
  resyncs += agg.resyncs_served();
  agg.begin_collective();
  agg.set_epoch(static_cast<std::uint8_t>(ctl->step & 0xff));
  const JobState::StepPlan& plan = job_.steps[ctl->step];
  agg.set_active_workers(plan.active);
  for (std::size_t s = 0; s < plan.owner.size(); ++s) {
    if (plan.owner[s] != a_) continue;
    agg.add_stream(static_cast<std::uint32_t>(s), plan.layout.streams[s]);
  }
  auto ack = std::make_shared<JobCtl>();
  ack->kind = JobCtl::kSetupAck;
  ack->step = ctl->step;
  ack->slot = static_cast<std::uint32_t>(a_);
  job_.net->send(ep, job_.controller->ep, std::move(ack));
}

// --- JobController ---------------------------------------------------------

void Fabric::JobController::begin_step(std::size_t s) {
  step_ = s;
  step_finish_ = 0;
  const JobState::StepPlan& plan = job_.steps[s];
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
    job_.net->send(ep, job_.worker_agents[w]->ep, std::move(join));
  }
}

void Fabric::JobController::send_setup() {
  acks_pending_ = job_.agg_agents.size();
  for (const auto& agent : job_.agg_agents) {
    auto setup = std::make_shared<JobCtl>();
    setup->kind = JobCtl::kSetup;
    setup->step = static_cast<std::uint32_t>(step_);
    job_.net->send(ep, agent->ep, std::move(setup));
  }
}

void Fabric::JobController::start_workers() {
  const JobState::StepPlan& plan = job_.steps[step_];
  dones_pending_ = plan.active_count;
  for (std::size_t w = 0; w < plan.active.size(); ++w) {
    if (!plan.active[w]) continue;
    auto start = std::make_shared<JobCtl>();
    start->kind = JobCtl::kStart;
    start->step = static_cast<std::uint32_t>(step_);
    start->slot = static_cast<std::uint32_t>(w);
    job_.net->send(ep, job_.worker_agents[w]->ep, std::move(start));
  }
}

void Fabric::JobController::on_message(net::EndpointId /*from*/,
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
      job_.data_bytes += ctl->data_bytes;
      job_.acks += ctl->acks;
      job_.retransmissions += ctl->retransmissions;
      step_finish_ = std::max(step_finish_, ctl->finish);
      if (--dones_pending_ > 0) return;
      job_.step_completion.push_back(step_finish_);
      job_.finish = step_finish_;
      if (step_ + 1 < job_.steps.size()) {
        begin_step(step_ + 1);
      } else {
        job_.done = true;
      }
      return;
    }
    default:
      throw std::logic_error("job controller received unexpected kind");
  }
}

// ---------------------------------------------------------------------------
// Fabric

Fabric::Fabric(TenantFabricSpec spec)
    : spec_(std::move(spec)), slot_pool_(spec_.switch_slots) {
  if (spec_.n_machines == 0) {
    throw std::invalid_argument("fabric needs at least one machine");
  }
  if (spec_.topology.spine_lossy()) {
    // Fabric-level loss draws one shared RNG stream, which the multi-job
    // determinism guarantees cannot preserve.
    throw std::invalid_argument(
        "multi-tenant fabric does not support a lossy spine");
  }
  ctx_ = std::make_unique<RunContext>(spec_.topology, spec_.one_way_latency,
                                      resolve_machine_racks(spec_),
                                      spec_.seed);
  machine_nics_.reserve(spec_.n_machines);
  for (std::size_t m = 0; m < spec_.n_machines; ++m) {
    machine_nics_.push_back(network().add_nic({spec_.machine_bandwidth_bps,
                                               spec_.machine_bandwidth_bps,
                                               spec_.machine_rx_overhead_ns}));
  }
}

Fabric::~Fabric() = default;

net::Network& Fabric::network() { return ctx_->network(); }

int Fabric::add_job(JobSpec spec, StepTensors& tensors) {
  if (ran_) throw std::logic_error("add_job after run");
  const std::size_t n_workers = spec.worker_machines.size();
  const std::size_t n_aggs = spec.aggregator_machines.size();
  if (n_workers == 0) throw std::invalid_argument("job has no workers");
  if (n_aggs == 0) throw std::invalid_argument("job has no aggregators");
  net::check_tenant_weight(spec.weight);
  for (std::size_t m : spec.worker_machines) {
    if (m >= spec_.n_machines) {
      throw std::invalid_argument("worker machine out of range");
    }
  }
  for (std::size_t m : spec.aggregator_machines) {
    if (m >= spec_.n_machines) {
      throw std::invalid_argument("aggregator machine out of range");
    }
  }
  if (tensors.empty()) throw std::invalid_argument("job has no steps");
  for (const auto& step : tensors) {
    if (step.size() != n_workers) {
      throw std::invalid_argument("step tensor count != worker count");
    }
  }
  if (!spec.initial_active.empty() &&
      spec.initial_active.size() != n_workers) {
    throw std::invalid_argument("initial_active size != worker count");
  }
  if (std::any_of(spec.initial_active.begin(), spec.initial_active.end(),
                  [](std::uint8_t a) { return a > 1; })) {
    throw std::invalid_argument("initial_active entries must be 0 or 1");
  }

  auto job = std::make_unique<JobState>();
  const int index = next_index_++;
  job->index = index;
  job->tensors = &tensors;
  job->device = &spec_.device;
  job->net = &network();
  job->controller_machine = spec.worker_machines.front();

  // --- membership schedule -> per-step active sets -------------------------
  const std::size_t n_steps = tensors.size();
  std::vector<std::uint8_t> active =
      spec.initial_active.empty() ? std::vector<std::uint8_t>(n_workers, 1)
                                  : spec.initial_active;
  std::vector<JobMembershipEvent> events = spec.membership;
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
  job->steps.resize(n_steps);
  std::vector<std::size_t> step_elements(n_steps, 0);
  std::size_t demand = 0;  // switch slots: peak stream count over all steps
  std::size_t ev = 0;
  for (std::size_t s = 0; s < n_steps; ++s) {
    JobState::StepPlan& plan = job->steps[s];
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
    step_elements[s] = tensors[s][first - active.begin()].size();
    for (std::size_t w = 0; w < n_workers; ++w) {
      if (active[w] && tensors[s][w].size() != step_elements[s]) {
        throw std::invalid_argument("tensor size mismatch within a step");
      }
    }
    demand = std::max(demand, StreamLayout::build(step_elements[s], spec.config)
                                  .streams.size());
  }

  // --- admission: switch-slot pool -----------------------------------------
  // Jobs aggregating on the switch data plane consume programmable-switch
  // slots; the pool partitions them per job and rejects what cannot fit.
  if (spec.config.switch_multicast && !slot_pool_.reserve(index, demand)) {
    job->admitted = false;
    job->rejection = "switch slot pool exhausted: need " +
                     std::to_string(demand) + ", available " +
                     std::to_string(slot_pool_.available()) + " of " +
                     std::to_string(slot_pool_.total());
    job->spec = std::move(spec);
    jobs_.push_back(std::move(job));
    return index;
  }

  // --- wiring: protocol endpoints + control plane --------------------------
  std::vector<net::NicId> worker_nics;
  for (std::size_t m : spec.worker_machines) {
    worker_nics.push_back(machine_nics_[m]);
  }
  std::vector<net::NicId> agg_nics;
  for (std::size_t m : spec.aggregator_machines) {
    agg_nics.push_back(machine_nics_[m]);
  }
  job->wiring = wire_protocol(spec.config, network(), worker_nics, agg_nics);
  job->controller = std::make_unique<JobController>(*job);
  job->controller_ep = network().attach(job->controller.get(),
                                        machine_nics_[job->controller_machine]);
  job->controller->ep = job->controller_ep;
  for (std::size_t w = 0; w < n_workers; ++w) {
    job->worker_agents.push_back(std::make_unique<WorkerAgent>(*job, w));
    job->worker_agents.back()->ep =
        network().attach(job->worker_agents.back().get(),
                         machine_nics_[spec.worker_machines[w]]);
    WorkerAgent* agent = job->worker_agents.back().get();
    job->wiring.workers[w]->set_on_done(
        [agent](Worker&) { agent->worker_done(); });
  }
  for (std::size_t a = 0; a < n_aggs; ++a) {
    job->agg_agents.push_back(std::make_unique<AggAgent>(*job, a));
    job->agg_agents.back()->ep =
        network().attach(job->agg_agents.back().get(),
                         machine_nics_[spec.aggregator_machines[a]]);
  }

  // Each step is planned as a single-job collective over its active
  // members: same stream ownership, timeout and reference check.
  for (std::size_t s = 0; s < n_steps; ++s) {
    JobState::StepPlan& step = job->steps[s];
    static_cast<CollectivePlan&>(step) = plan_collective(
        spec.config, step_elements[s], network(), worker_nics, agg_nics,
        job->wiring.agg_eps, spec.verify ? &tensors[s] : nullptr, step.active);
  }

  job->spec = std::move(spec);
  jobs_.push_back(std::move(job));
  return index;
}

int Fabric::add_custom_job(const CustomJobSpec& spec, FabricJob& job) {
  if (ran_) throw std::logic_error("add_custom_job after run");
  if (spec.name.empty()) {
    throw std::invalid_argument("custom job needs a name");
  }
  net::check_tenant_weight(spec.weight);
  const int index = next_index_++;
  job.attach(network(), machine_nics_);
  CustomState state;
  state.spec = spec;
  state.index = index;
  state.job = &job;
  custom_.push_back(std::move(state));
  return index;
}

std::vector<Fabric::Kick> Fabric::kickoff_order() {
  std::vector<Kick> kicks;
  kicks.reserve(jobs_.size() + custom_.size());
  for (const auto& job : jobs_) {
    if (!job->admitted) continue;
    JobController* controller = job->controller.get();
    kicks.push_back({job->index, job->spec.start_at,
                     [controller] { controller->kickoff(); }});
  }
  for (const auto& c : custom_) {
    FabricJob* job = c.job;
    kicks.push_back({c.index, c.spec.start_at, [job] { job->kickoff(); }});
  }
  // Tenant-index order == add order across both job kinds: kickoffs fire
  // in this order.
  std::sort(kicks.begin(), kicks.end(),
            [](const Kick& a, const Kick& b) { return a.index < b.index; });
  return kicks;
}

void Fabric::run() {
  if (ran_) throw std::logic_error("Fabric::run called twice");
  ran_ = true;
  if (jobs_.empty() && custom_.empty()) return;

  // Tenant registration: tenant id == job index (rejected jobs keep their
  // id but never send). A single job keeps the single-tenant fast path —
  // links then schedule byte-identically to a plain engine run.
  std::vector<double> weights(static_cast<std::size_t>(next_index_), 1.0);
  for (const auto& job : jobs_) {
    weights[static_cast<std::size_t>(job->index)] = job->spec.weight;
  }
  for (const auto& c : custom_) {
    weights[static_cast<std::size_t>(c.index)] = c.spec.weight;
  }
  network().set_tenants(std::move(weights));
  for (const auto& c : custom_) {
    for (net::EndpointId e : c.job->endpoints()) {
      network().set_endpoint_tenant(e, c.index);
    }
  }
  for (const auto& job : jobs_) {
    if (!job->admitted) continue;
    for (net::EndpointId e : job->wiring.worker_eps) {
      network().set_endpoint_tenant(e, job->index);
    }
    for (net::EndpointId e : job->wiring.agg_eps) {
      network().set_endpoint_tenant(e, job->index);
    }
    for (const auto& agent : job->worker_agents) {
      network().set_endpoint_tenant(agent->ep, job->index);
    }
    for (const auto& agent : job->agg_agents) {
      network().set_endpoint_tenant(agent->ep, job->index);
    }
    network().set_endpoint_tenant(job->controller_ep, job->index);
  }

  for (const Kick& k : kickoff_order()) {
    if (k.start_at == 0) {
      k.fn();
    } else {
      ctx_->simulator().schedule_at(k.start_at, k.fn);
    }
  }
  ctx_->simulator().run();

  for (const auto& job : jobs_) {
    if (!job->admitted) continue;
    if (!job->done) {
      throw std::logic_error("job \"" + job->spec.name +
                             "\" did not complete (protocol stall)");
    }
    finish_job(*job);
  }
  for (const auto& c : custom_) {
    if (!c.job->done()) {
      throw std::logic_error("job \"" + c.spec.name +
                             "\" did not complete (protocol stall)");
    }
    c.job->finalize();
  }
}

void Fabric::finish_job(JobState& job) {
  // Final counter sweep: agents banked every completed step's aggregator
  // counters except the last (no further kSetup resets them), which is
  // still live in the aggregators. Runs on the caller's thread, post-run.
  const ProtocolWiring& wiring = job.wiring;
  for (std::size_t a = 0; a < wiring.aggregators.size(); ++a) {
    job.rounds +=
        job.agg_agents[a]->rounds + wiring.aggregators[a]->rounds_completed();
    job.duplicate_resends += job.agg_agents[a]->duplicate_resends +
                             wiring.aggregators[a]->duplicate_resends();
    job.resyncs +=
        job.agg_agents[a]->resyncs + wiring.aggregators[a]->resyncs_served();
    job.stale_drops += wiring.aggregators[a]->stale_drops();
  }
  for (const auto& w : wiring.workers) job.stale_drops += w->stale_results();

  if (!job.spec.verify) return;
  const Config& cfg = job.spec.config;
  // A deterministic-reduction sum without value quantization folds in
  // ascending worker-id order — exactly reference_reduce's association —
  // so elastic runs are checked for bit-exact equality.
  const bool exact = cfg.deterministic_reduction &&
                     cfg.op == ReduceOp::kSum && !cfg.codec.enabled() &&
                     !cfg.fixed_point;
  for (std::size_t s = 0; s < job.steps.size(); ++s) {
    const JobState::StepPlan& plan = job.steps[s];
    const double base_tol =
        exact ? 0.0 : 1e-4 * static_cast<double>(plan.active_count);
    if (!plan.check->check((*job.tensors)[s], base_tol).ok) {
      throw std::logic_error("job \"" + job.spec.name + "\" step " +
                             std::to_string(s) +
                             " result mismatch vs reference");
    }
  }
  job.verified = true;
}

telemetry::FabricReport Fabric::report() const {
  const net::Network& net = ctx_->network();
  telemetry::FabricReport out;
  out.topology = net.topology().kind();
  out.n_machines = spec_.n_machines;
  out.switch_slots = spec_.switch_slots;
  std::vector<std::pair<int, telemetry::FabricJobSummary>> rows;
  rows.reserve(jobs_.size() + custom_.size());
  for (const auto& job : jobs_) {
    telemetry::FabricJobSummary s;
    s.name = job->spec.name;
    s.admitted = job->admitted;
    s.rejection = job->rejection;
    s.weight = job->spec.weight;
    s.start_at = job->spec.start_at;
    s.finish = job->finish;
    s.steps = job->steps.size();
    s.data_bytes = job->data_bytes;
    s.rounds = job->rounds;
    s.retransmissions = job->retransmissions;
    s.resyncs = job->resyncs;
    s.stale_drops = job->stale_drops;
    s.verified = job->verified;
    s.step_completion = job->step_completion;
    for (const auto& plan : job->steps) {
      s.step_active.push_back(plan.active_count);
    }
    rows.emplace_back(job->index, std::move(s));
  }
  for (const auto& c : custom_) {
    telemetry::FabricJobSummary s;
    s.name = c.spec.name;
    s.kind = c.job->kind();
    s.admitted = true;
    s.weight = c.spec.weight;
    s.start_at = c.spec.start_at;
    s.finish = c.job->finish_time();
    // finalize() throws on any invariant violation, so a run that got
    // this far is verified by construction.
    s.verified = ran_;
    rows.emplace_back(c.index, std::move(s));
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& row : rows) out.jobs.push_back(std::move(row.second));

  // Per-(link, tenant) traffic split plus a Jain fairness index over the
  // busiest contended link's weight-normalized bytes.
  struct TenantRow {
    int index;
    const std::string* name;
    double weight;
  };
  std::vector<TenantRow> tenants;
  tenants.reserve(jobs_.size() + custom_.size());
  for (const auto& job : jobs_) {
    tenants.push_back({job->index, &job->spec.name, job->spec.weight});
  }
  for (const auto& c : custom_) {
    tenants.push_back({c.index, &c.spec.name, c.spec.weight});
  }
  std::sort(tenants.begin(), tenants.end(),
            [](const TenantRow& a, const TenantRow& b) {
              return a.index < b.index;
            });
  const net::Topology& topo = net.topology();
  double best_total = 0.0;
  std::vector<double> best_shares;
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const auto id = static_cast<net::LinkId>(l);
    std::vector<double> shares;
    double total = 0.0;
    for (const TenantRow& tenant : tenants) {
      const net::LinkStats& st = net.tenant_link_stats(id, tenant.index);
      if (st.tx_bytes == 0 && st.tx_messages == 0 &&
          st.dropped_messages == 0) {
        continue;
      }
      telemetry::TenantLinkShare row;
      row.link = topo.link_name(id);
      row.job = *tenant.name;
      row.tx_bytes = st.tx_bytes;
      row.tx_messages = st.tx_messages;
      row.dropped_messages = st.dropped_messages;
      out.link_shares.push_back(std::move(row));
      shares.push_back(static_cast<double>(st.tx_bytes) / tenant.weight);
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
  for (const auto& c : custom_) c.job->fill_report(out);
  return out;
}

}  // namespace omr::core
