#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "device/device_model.h"
#include "innet/slot_pool.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "telemetry/report.h"
#include "tensor/dense.h"

namespace omr::core {

/// The shared physical substrate of a multi-tenant run: N machines (one
/// NIC each) joined by a topology, plus the switch-slot budget jobs draw
/// their aggregation slots from. Unlike ClusterSpec — which describes one
/// job's cluster — a TenantFabricSpec knows nothing about workers or
/// aggregators: jobs map their endpoints onto machines via JobSpec. Every
/// machine NIC runs at 10 Gbps and receives at line rate.
struct TenantFabricSpec {
  std::size_t n_machines = 4;
  sim::Time one_way_latency = sim::microseconds(10);
  /// Fabric shape. kIdealSwitch ignores the rack fields; kTwoTier places
  /// machines in racks under ToR switches joined by an oversubscribable
  /// spine — the contended links weighted-fair sharing acts on.
  TopologySpec topology;
  /// Rack of each machine (kTwoTier; empty = contiguous fill).
  std::vector<int> machine_racks;
  std::uint64_t seed = 1;
  /// Programmable-switch aggregation slots shared by all jobs (0 =
  /// unlimited). Jobs whose config uses the switch data plane
  /// (switch_multicast) reserve their peak stream count at admission and
  /// are rejected — not run — when the pool cannot fit them.
  std::size_t switch_slots = 0;
  device::DeviceModel device;
};

/// One elastic-membership change: before step `before_step` starts, job
/// worker `worker` joins (runs a resync catch-up handshake against the
/// previous step's aggregators, modeling state transfer) or leaves (is
/// simply excluded from the step's active set — crash-style departure).
struct JobMembershipEvent {
  std::size_t before_step = 0;  // must be >= 1: step 0 uses initial_active
  std::size_t worker = 0;       // job-local worker index
  bool join = true;
};

/// One tenant: an independent training job with its own algorithm Config,
/// weight, start time and machine placement. Worker i of the job runs on
/// fabric machine worker_machines[i]; aggregator shard a on
/// aggregator_machines[a]. Machines may be shared between jobs (their NIC
/// is then FIFO-shared, like two processes on one host) and between roles.
struct JobSpec {
  std::string name;
  Config config;
  std::vector<std::size_t> worker_machines;
  std::vector<std::size_t> aggregator_machines;
  /// Weighted-fair share on contended fabric links (finite, > 0).
  double weight = 1.0;
  /// Virtual time the job's first step begins.
  sim::Time start_at = 0;
  /// Step-0 membership: active flag (0 or 1) per job worker (empty = all
  /// active).
  std::vector<std::uint8_t> initial_active;
  /// Joins/leaves applied between steps, in any order.
  std::vector<JobMembershipEvent> membership;
  /// Check every step's result against a pre-computed reference reduction
  /// over that step's active members.
  bool verify = true;
};

/// One tenant of a Fabric. Training jobs (Fabric::add_job) and custom jobs
/// such as the src/serve serving tier (Fabric::add_custom_job) both
/// implement it. A job attaches its endpoints in attach(), then drives
/// itself entirely through Network::send plus timers on the network's
/// simulator. The Fabric owns scheduling (kickoff at the tenant's start_at)
/// and tenant attribution (weighted-fair link shares); the job owns its
/// protocol and telemetry.
class FabricJob {
 public:
  virtual ~FabricJob() = default;
  /// Create and attach this job's endpoints; machine_nics[m] is fabric
  /// machine m's NIC. Called once, when the job is added. Throw before
  /// attaching any endpoint, so a failed add leaves the fabric unchanged.
  virtual void attach(net::Network& net,
                      const std::vector<net::NicId>& machine_nics) = 0;
  /// Every endpoint attach() created (for tenant attribution).
  virtual std::vector<net::EndpointId> endpoints() const = 0;
  /// Begin the job (invoked at the tenant's start_at).
  virtual void kickoff() = 0;
  /// Whether the job ran to completion once the simulator drained.
  virtual bool done() const = 0;
  /// Post-run, single-threaded: verify invariants (throw on violation)
  /// and bank counters for fill_report().
  virtual void finalize() = 0;
  /// Fill this job's report row, whose tenancy envelope (name, weight,
  /// start_at, admission) the Fabric has set, and append job-kind sections
  /// (e.g. a telemetry::ServeReport) to the fabric report.
  virtual void fill_report(telemetry::FabricJobSummary& row,
                           telemetry::FabricReport& out) const = 0;
};

/// Fabric-level envelope of a custom job: the tenancy fields a FabricJob
/// shares with training jobs (name, weighted-fair share, start time). The
/// job's own shape lives in the FabricJob implementation.
struct CustomJobSpec {
  std::string name;
  double weight = 1.0;
  sim::Time start_at = 0;
};

/// Multi-tenant run: one simulator and one network over make_topology (the
/// topology builder of run_allreduce and Session), one NIC per machine, and
/// N concurrent tenants. Every tenant is a FabricJob; its tenant index is
/// its add order, shared by add_job and add_custom_job.
///
/// A training job is wired with wire_protocol like a single-job run. Its
/// steps are sequenced by a per-job control plane whose messages travel
/// the simulated fabric itself (a controller plus one agent per
/// worker/aggregator machine), so every cross-machine effect flows through
/// Network::send. Contended interior links are shared weighted-fair by
/// tenant weight (net::Network::set_tenants); machine NICs stay FIFO, as
/// real hosts are.
///
/// Usage:
///   Fabric fabric(spec);
///   fabric.add_job(job_a, tensors_a);   // [step][job worker], outlive run
///   fabric.add_job(job_b, tensors_b);
///   fabric.run();
///   telemetry::FabricReport r = fabric.report();
class Fabric {
 public:
  /// Per-job inputs: tensors[s][w] is job worker w's contribution to step
  /// s, reduced in place (only active workers' tensors are touched).
  using StepTensors = std::vector<std::vector<tensor::DenseTensor>>;

  explicit Fabric(TenantFabricSpec spec);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Register a training job. `tensors` must outlive run(). Returns the
  /// tenant index. A job the switch-slot pool cannot admit is recorded as
  /// rejected (see report()) and does not run; add_job itself only throws
  /// on malformed specs (bad machine index, bad membership schedule, size
  /// mismatches), and then adds no tenant.
  int add_job(JobSpec spec, StepTensors& tensors);

  /// Register a custom (non-collective) job, e.g. a serve::ServingJob.
  /// The job must outlive run(); its endpoints are attached immediately.
  /// Custom jobs use no switch-aggregation slots, so admission never
  /// rejects them. Returns the tenant index; a job whose attach() throws
  /// adds no tenant.
  int add_custom_job(const CustomJobSpec& spec, FabricJob& job);

  /// Run every admitted job to completion. Call once; throws if a job
  /// stalls or fails its checks.
  void run();

  /// Fabric-level outcome: per-job summaries, the per-(link, job) traffic
  /// split of every contended link, and a Jain fairness index over
  /// weight-normalized bytes on the busiest shared link.
  telemetry::FabricReport report() const;

  net::Network& network() { return network_; }

 private:
  /// One tenant, in tenant-index order. A rejected training job keeps its
  /// index, weight and report row but is never attached or run.
  struct Tenant {
    CustomJobSpec spec;
    FabricJob* job = nullptr;
    std::string rejection;  // empty when admitted

    bool admitted() const { return rejection.empty(); }
  };

  TenantFabricSpec spec_;
  sim::Simulator simulator_;
  net::Network network_;  // keeps a pointer to simulator_
  std::vector<net::NicId> machine_nics_;
  innet::SlotPool slot_pool_;
  std::vector<std::unique_ptr<FabricJob>> training_jobs_;
  std::vector<Tenant> tenants_;
  bool ran_ = false;
};

}  // namespace omr::core
