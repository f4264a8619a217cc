#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "baselines/zoo.h"
#include "compress/wire_codec.h"
#include "core/algorithm.h"
#include "core/engine.h"
#include "core/fabric.h"
#include "core/selector.h"
#include "core/session.h"
#include "core/tenancy.h"
#include "serve/serving.h"
#include "sim/rng.h"
#include "tensor/generators.h"

namespace perfbench {

using namespace omr;
using Tensors = std::vector<tensor::DenseTensor>;

void Harness::check(bool ok, const std::string& what) {
  if (ok) return;
  op_failed_ = true;
  std::fprintf(stderr, "op %llu: check failed: %s\n",
               static_cast<unsigned long long>(op_), what.c_str());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double histogram_quantile_interp(const telemetry::Histogram& h, double q) {
  if (h.total == 0) return 0.0;
  const double rank = q * static_cast<double>(h.total);
  double cum = 0.0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double c = static_cast<double>(h.counts[i]);
    if (c > 0.0 && cum + c >= rank) {
      const double lo = std::max(i == 0 ? h.min : h.bounds[i - 1], h.min);
      const double hi = std::min(i < h.bounds.size() ? h.bounds[i] : h.max,
                                 h.max);
      return lo + (hi - lo) * std::clamp((rank - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  return h.max;
}

double Workload::sim_ms_quantile(double q) const {
  return quantile(totals_.sim_ms, q);
}

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  sim::Rng rng(seed * 0x100000001b3ULL + salt);
  return rng.next_u64();
}

std::uint64_t fnv1a(const Tensors& ts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& t : ts) {
    const auto* p = reinterpret_cast<const unsigned char*>(t.values().data());
    for (std::size_t i = 0; i < t.size() * sizeof(float); ++i) {
      h = (h ^ p[i]) * 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t spine_bytes(const std::vector<telemetry::LinkReport>& links) {
  std::uint64_t b = 0;
  for (const auto& l : links) b += l.tx_bytes;
  return b;
}

/// Max per-worker error of `result` against `reference` under the
/// registered algorithm's own error measure.
double verify_error(const core::CollectiveAlgorithm& algo,
                    const Tensors& result,
                    const tensor::DenseTensor& reference) {
  double err = 0.0;
  for (const auto& t : result) {
    err = std::max(err, algo.verify_error(t, reference));
  }
  return err;
}

/// Span name of the layer a registry algorithm lives in.
const char* layer_of(const std::string& algo) {
  static const char* const kNames[][2] = {
      {"ring", "baselines.ring"},         {"oktopk", "baselines.oktopk"},
      {"sketch", "baselines.sketch"},     {"ps_sparse", "baselines.ps_sparse"},
      {"sparcml", "baselines.sparcml"},   {"agsparse", "baselines.agsparse"},
      {"omnireduce", "core.omnireduce"},
  };
  for (const auto& n : kNames) {
    if (algo == n[0]) return n[1];
  }
  return "other";
}

// --- sweep_zoo ------------------------------------------------------------

/// fig06 / selector-bench grid: 8 colocated workers at 10 Gbps with GDR,
/// {256K, 1M} elements x sparsity {0.5, 0.9, 0.99} x eight lanes. Every lane
/// of one cell reduces a copy of the same inputs, so the auto lane's regret
/// is measured against the best fixed algorithm on identical tensors.
class SweepZoo final : public Workload {
 public:
  SweepZoo(std::uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {
    cfg_ = core::Config::for_transport(core::Transport::kRdma);
    cluster_ = core::ClusterSpec::colocated();
    cluster_.fabric.worker_bandwidth_bps = 10e9;
    cluster_.fabric.aggregator_bandwidth_bps = 10e9;
    cluster_.device.gdr = true;
  }

  void setup() override {
    baselines::register_zoo();
    selector_ = std::make_unique<core::OnlineSelector>();
    // Warm-up: every lane once at a small size. The auto lane chooses but
    // does not observe, so the selector starts the run cold.
    sim::Rng rng(mix(seed_, 0x5e7));
    const Tensors small = tensor::make_multi_worker(
        kWorkers, 16384, 256, 0.9, tensor::OverlapMode::kRandom, rng);
    for (const char* lane : kLanes) {
      Tensors ts = small;
      std::string algo = lane;
      if (algo == "auto") {
        algo = selector_
                   ->choose(kWorkers, 16384,
                            core::OnlineSelector::measured_density(ts), cfg_,
                            cluster_)
                   .algorithm;
      }
      core::run_collective(algo, ts, cfg_, cluster_, /*verify=*/false);
    }
  }

  std::size_t pass_ops() const override { return kCells * kNumLanes; }
  std::size_t prefix_ops() const override {
    return (smoke_ ? 1 : 3) * pass_ops();
  }

  double grad_bytes(std::size_t i) const override {
    return static_cast<double>(kWorkers * elements(i / kNumLanes)) * 4.0;
  }

  void run_op(std::size_t i, Harness& h) override {
    const std::size_t group = i / kNumLanes;
    const std::string lane = kLanes[i % kNumLanes];
    const std::size_t n = elements(group);
    h.inputs([&] {
      if (group != master_group_) {
        sim::Rng rng(mix(seed_, group));
        master_ = tensor::make_multi_worker(kWorkers, n, 256,
                                            kSparsity[group % 3],
                                            tensor::OverlapMode::kRandom, rng);
        density_ = core::OnlineSelector::measured_density(master_);
        master_group_ = group;
        best_fixed_s_ = std::numeric_limits<double>::infinity();
        if (i == 0) totals_.input_fnv = fnv1a(master_);
      }
      work_ = master_;
    });

    std::string algo = lane;
    core::RunStats st;
    h.call([&] {
      SpanRecorder& sp = h.spans();
      if (lane == "auto") {
        core::SelectorDecision d;
        {
          Scope s(sp, "core.selector.choose", h.op());
          d = selector_->choose(kWorkers, n, density_, cfg_, cluster_);
        }
        algo = d.algorithm;
        {
          Scope s(sp, layer_of(algo), h.op());
          st = core::run_collective(algo, work_, cfg_, cluster_, false);
        }
        Scope s(sp, "core.selector.observe", h.op());
        selector_->observe(d.algorithm, d.codec, n, density_,
                           d.predicted_seconds,
                           sim::to_seconds(st.completion_time));
      } else {
        Scope s(sp, layer_of(algo), h.op());
        st = core::run_collective(algo, work_, cfg_, cluster_, false);
      }
    });

    h.verify([&] {
      if (reference_group_ != group) {
        reference_ = core::reference_reduce(master_, cfg_);
        reference_group_ = group;
      }
      const core::CollectiveAlgorithm& a =
          core::CollectiveRegistry::global().at(algo);
      const double err = verify_error(a, work_, reference_);
      h.check(st.completed(), lane + " (" + algo + ") did not complete");
      h.check(err <= a.verify_tolerance(reference_, kWorkers),
              lane + " (" + algo + ") error " + std::to_string(err));
    });

    if (i >= prefix_ops()) return;
    const double sim_s = sim::to_seconds(st.completion_time);
    totals_.sim_ms.push_back(st.completion_ms());
    totals_.rounds += st.rounds;
    totals_.messages += st.total_messages;
    totals_.drops += st.dropped_messages;
    totals_.retransmissions += st.retransmissions;
    if (lane == "auto") {
      totals_.auto_sim_s += sim_s;
      totals_.best_fixed_sim_s += best_fixed_s_;
      totals_.trainer_sim_ms += st.completion_ms();
    } else {
      best_fixed_s_ = std::min(best_fixed_s_, sim_s);
    }
  }

 private:
  static constexpr std::size_t kWorkers = 8;
  static constexpr std::size_t kCells = 6;
  static constexpr std::size_t kNumLanes = 8;
  static constexpr const char* kLanes[kNumLanes] = {
      "ring",      "omnireduce", "oktopk",   "sketch",
      "ps_sparse", "sparcml",    "agsparse", "auto"};
  static constexpr double kSparsity[3] = {0.5, 0.9, 0.99};

  std::size_t elements(std::size_t group) const {
    const std::size_t big = (group % kCells) >= 3;
    return smoke_ ? (big ? 65536 : 16384) : (big ? 1u << 20 : 1u << 18);
  }

  std::uint64_t seed_;
  bool smoke_;
  core::Config cfg_;
  core::ClusterSpec cluster_;
  std::unique_ptr<core::OnlineSelector> selector_;
  std::size_t master_group_ = std::numeric_limits<std::size_t>::max();
  std::size_t reference_group_ = std::numeric_limits<std::size_t>::max();
  Tensors master_;
  Tensors work_;
  tensor::DenseTensor reference_;
  double density_ = 0.0;
  double best_fixed_s_ = 0.0;
};

// --- omni_twotier ---------------------------------------------------------

/// OmniReduce at scale on an oversubscribed fabric: 64 workers and 8
/// dedicated aggregators in 4 racks under a 2:1 spine, 256K elements per
/// worker. Four lanes cycle: steps of a persistent RDMA Session at 90% and
/// 99% sparsity, steps of a persistent RDMA+q8 Session on the 90% lane's
/// inputs, and a one-shot lossy DPDK run.
class OmniTwoTier final : public Workload {
 public:
  OmniTwoTier(std::uint64_t seed, bool smoke)
      : seed_(seed),
        smoke_(smoke),
        n_workers_(smoke ? 16 : 64),
        elements_(smoke ? 16384 : 262144) {
    cluster_ = core::ClusterSpec::dedicated(smoke ? 4 : 8);
    cluster_.topology = core::TopologySpec::two_tier_racks(4, 2.0);
    cluster_.fabric.seed = mix(seed, 0xfab);
    lossy_ = cluster_;
    // The smoke size sends too few messages for 1e-4 to drop any; 1e-2
    // keeps the retransmission path in the determinism test.
    lossy_.fabric.loss_rate = smoke ? 1e-2 : 1e-4;
    rdma_cfg_ = core::Config::for_transport(core::Transport::kRdma);
    q8_cfg_ = rdma_cfg_;
    q8_cfg_.codec.codec = compress::WireCodec::kQ8;
    dpdk_cfg_ = core::Config::for_transport(core::Transport::kDpdk);
  }

  void setup() override {
    rdma_ = std::make_unique<core::Session>(rdma_cfg_, n_workers_, cluster_);
    q8_ = std::make_unique<core::Session>(q8_cfg_, n_workers_, cluster_);
    sim::Rng rng(mix(seed_, 0x5e7));
    const Tensors small = tensor::make_multi_worker(
        n_workers_, 4096, 256, 0.9, tensor::OverlapMode::kRandom, rng);
    Tensors ts = small;
    rdma_->allreduce(ts, false);
    ts = small;
    q8_->allreduce(ts, false);
    ts = small;
    core::run_allreduce_report(ts, dpdk_cfg_, lossy_, false);
    rdma_events_ = rdma_->last_report().sim_events_executed;
    q8_events_ = q8_->last_report().sim_events_executed;
  }

  std::size_t pass_ops() const override { return 4; }
  std::size_t prefix_ops() const override { return smoke_ ? 8 : 100; }

  double grad_bytes(std::size_t) const override {
    return static_cast<double>(n_workers_ * elements_) * 4.0;
  }

  void run_op(std::size_t i, Harness& h) override {
    const std::size_t lane = i % 4;
    const std::size_t pass = i / 4;
    const bool s99 = lane == 1 || lane == 3;
    // The q8 lane regenerates the raw 90% lane's inputs from the same seed.
    const std::uint64_t input_seed =
        mix(seed_, pass * 4 + (lane == 2 ? 0 : lane));
    h.inputs([&] {
      sim::Rng rng(input_seed);
      work_ = tensor::make_multi_worker(n_workers_, elements_, 256,
                                        s99 ? 0.99 : 0.9,
                                        tensor::OverlapMode::kRandom, rng);
      if (i == 0) totals_.input_fnv = fnv1a(work_);
    });
    const core::Config& cfg =
        lane == 2 ? q8_cfg_ : (lane == 3 ? dpdk_cfg_ : rdma_cfg_);
    double amax = 0.0;
    h.verify([&] {
      reference_ = core::reference_reduce(work_, cfg);
      if (!cfg.codec.enabled()) return;
      for (const auto& t : work_) {
        for (float v : t.values()) {
          amax = std::max(amax, std::fabs(static_cast<double>(v)));
        }
      }
    });

    core::Session& session = lane == 2 ? *q8_ : *rdma_;
    core::RunStats stats;
    telemetry::RunReport report;
    h.call([&] {
      if (lane == 3) {
        Scope s(h.spans(), "core.omnireduce.dpdk_lossy", h.op());
        report = core::run_allreduce_report(work_, dpdk_cfg_, lossy_, false,
                                            "dpdk_lossy");
      } else {
        Scope s(h.spans(),
                lane == 2 ? "core.session.rdma_q8" : "core.session.rdma",
                h.op());
        stats = session.allreduce(work_, false);
      }
    });
    Outcome out;
    if (lane == 3) {
      out = outcome_of(report);
      out.completed = report.verdict == "completed";
      out.events = report.sim_events_executed;
    } else {
      // Session reports count events over the session's lifetime.
      std::uint64_t& seen = lane == 2 ? q8_events_ : rdma_events_;
      out = outcome_of(stats);
      out.completed = stats.completed();
      out.events = session.last_report().sim_events_executed - seen;
      seen = session.last_report().sim_events_executed;
    }

    h.verify([&] {
      const core::CollectiveAlgorithm& a =
          core::CollectiveRegistry::global().at("omnireduce");
      double tol = a.verify_tolerance(reference_, n_workers_);
      if (cfg.codec.enabled()) {
        tol +=
            compress::codec_verify_slack(cfg.codec.codec, amax, n_workers_);
      }
      const double err = verify_error(a, work_, reference_);
      const std::string name = "lane " + std::to_string(lane);
      h.check(out.completed, name + " did not complete");
      h.check(err <= tol, name + " error " + std::to_string(err));
    });

    if (i >= prefix_ops()) return;
    totals_.sim_ms.push_back(out.sim_ms);
    if (lane != 3) totals_.trainer_sim_ms += out.sim_ms;
    totals_.rounds += out.rounds;
    totals_.messages += out.messages;
    totals_.drops += out.drops;
    totals_.retransmissions += out.retransmissions;
    if (lane == 3) totals_.lossy_messages += out.messages;
    totals_.sim_events += out.events;
    totals_.spine_bytes += out.spine_bytes;
    totals_.codec_saved_bytes += out.codec_saved;
    totals_.codec_exact_folds += out.exact_folds;
    totals_.codec_requant_folds += out.requant_folds;
  }

 private:
  /// The fields both RunStats (Session) and RunReport (one-shot) carry.
  struct Outcome {
    double sim_ms = 0.0;
    std::uint64_t rounds = 0, messages = 0, drops = 0, retransmissions = 0;
    std::uint64_t spine_bytes = 0, codec_saved = 0, exact_folds = 0;
    std::uint64_t requant_folds = 0, events = 0;
    bool completed = false;
  };
  template <class R>
  static Outcome outcome_of(const R& r) {
    Outcome o;
    o.sim_ms = sim::to_milliseconds(r.completion_time);
    o.rounds = r.rounds;
    o.messages = r.total_messages;
    o.drops = r.dropped_messages;
    o.retransmissions = r.retransmissions;
    o.spine_bytes = perfbench::spine_bytes(r.links);
    o.codec_saved = r.codec_saved_bytes;
    o.exact_folds = r.codec_exact_folds;
    o.requant_folds = r.codec_requant_folds;
    return o;
  }

  std::uint64_t seed_;
  bool smoke_;
  std::size_t n_workers_;
  std::size_t elements_;
  core::ClusterSpec cluster_;
  core::ClusterSpec lossy_;
  core::Config rdma_cfg_, q8_cfg_, dpdk_cfg_;
  std::unique_ptr<core::Session> rdma_;
  std::unique_ptr<core::Session> q8_;
  std::uint64_t rdma_events_ = 0;
  std::uint64_t q8_events_ = 0;
  Tensors work_;
  tensor::DenseTensor reference_;
};

// --- serve_cotenant -------------------------------------------------------

/// The bench_fig_serving fabric at 4 shards, a 4096-entry LRU cache, an 8:1
/// spine and a co-tenant trainer: 11 machines in 2 racks, 4 clients in rack
/// 0, 4 shards in rack 1, a 2-worker OmniReduce trainer straddling the
/// racks. One op builds the fabric and runs one serving window.
class ServeCotenant final : public Workload {
 public:
  ServeCotenant(std::uint64_t seed, bool smoke)
      : seed_(seed),
        smoke_(smoke),
        requests_per_client_(smoke ? 500 : 8000),
        trainer_elements_(smoke ? 16384 : 262144) {
    fspec_.n_machines = 11;
    fspec_.topology = core::TopologySpec::two_tier_racks(2, 8.0);
    fspec_.machine_racks = {0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1};
    fspec_.seed = mix(seed, 0xfab);
    trainer_.name = "trainer";
    trainer_.config.deterministic_reduction = true;
    trainer_.worker_machines = {8, 9};
    trainer_.aggregator_machines = {10};
  }

  void setup() override {
    // Warm-up: one short window with a small trainer.
    make_trainer_inputs(mix(seed_, 0x5e7), 16384);
    Window w = build(mix(seed_, 0x5e7), 500);
    w.fabric->run();
  }

  std::size_t pass_ops() const override { return 1; }
  std::size_t prefix_ops() const override { return smoke_ ? 3 : 100; }

  double grad_bytes(std::size_t) const override {
    return static_cast<double>(kTrainerSteps * 2 * trainer_elements_) * 4.0;
  }

  double sim_ms_quantile(double q) const override {
    return histogram_quantile_interp(totals_.lookup_ns, q) * 1e-6;
  }

  void run_op(std::size_t i, Harness& h) override {
    const std::uint64_t window_seed = mix(seed_, i);
    h.inputs([&] {
      make_trainer_inputs(window_seed ^ 0x7a1, trainer_elements_);
      if (i == 0) {
        totals_.input_fnv = fnv1a(tensors_.front()) ^ window_seed;
      }
    });

    Window w;
    h.call([&] {
      {
        Scope s(h.spans(), "serve.fabric_build", h.op());
        w = build(window_seed, requests_per_client_);
      }
      Scope s(h.spans(), "serve.fabric_run", h.op());
      w.fabric->run();
    });

    const telemetry::ServeReport& r = w.job->serve_report();
    telemetry::FabricReport fr;
    const telemetry::FabricJobSummary* trainer = nullptr;
    h.verify([&] {
      fr = w.fabric->report();
      for (const auto& row : fr.jobs) {
        if (row.name == "trainer") trainer = &row;
      }
      h.check(r.requests_issued == 4 * requests_per_client_,
              "requests issued " + std::to_string(r.requests_issued));
      h.check(r.requests_issued == r.responses_received,
              "requests issued != responses received");
      h.check(r.in_flight_at_drain == 0, "requests in flight at drain");
      h.check(trainer != nullptr && trainer->admitted && trainer->verified,
              "co-tenant trainer not verified");
    });

    if (i >= prefix_ops()) return;
    for (const auto& lane : r.lanes) {
      if (lane.name == "lookup") totals_.lookup_ns.merge(lane.latency_ns);
    }
    totals_.requests += r.requests_issued;
    totals_.lookups += r.lookups;
    totals_.cache_hits += r.cache_hits;
    for (const auto& s : r.shards) {
      totals_.batches += s.batches;
      totals_.batched_requests +=
          s.mean_batch_occupancy * static_cast<double>(s.batches);
      totals_.shard_busy_ns += static_cast<double>(s.busy_ns);
    }
    totals_.shard_window_ns +=
        static_cast<double>(r.shards.size()) *
        static_cast<double>(r.finish - r.first_issue);
    if (trainer != nullptr) {
      totals_.trainer_sim_ms += sim::to_milliseconds(trainer->finish);
      totals_.rounds += trainer->rounds;
      totals_.retransmissions += trainer->retransmissions;
    }
    net::Network& net = w.fabric->network();
    totals_.sim_events += net.simulator().events_executed();
    for (std::size_t m = 0; m < fspec_.n_machines; ++m) {
      totals_.messages +=
          net.nic_stats(static_cast<net::NicId>(m)).tx_messages;
    }
    totals_.drops += net.total_dropped();
    totals_.spine_bytes += spine_bytes(core::collect_link_reports(net));
  }

 private:
  static constexpr std::size_t kTrainerSteps = 2;

  /// Members are destroyed in reverse order: the job goes before the
  /// fabric, as in bench_fig_serving.
  struct Window {
    std::unique_ptr<core::Fabric> fabric;
    std::unique_ptr<serve::ServingJob> job;
  };

  /// The trainer's per-step worker gradients, 50% block-sparse.
  void make_trainer_inputs(std::uint64_t seed, std::size_t elements) {
    sim::Rng rng(seed);
    tensors_.assign(kTrainerSteps, {});
    for (auto& step : tensors_) {
      for (int w = 0; w < 2; ++w) {
        step.push_back(tensor::make_block_sparse(elements, 256, 0.5, rng));
      }
    }
  }

  /// Fabric + serving job + trainer (on tensors_) for one window.
  Window build(std::uint64_t window_seed, std::size_t requests_per_client) {
    core::ServeSpec sspec;
    sspec.n_shards = 4;
    sspec.n_clients = 4;
    sspec.key_space = std::size_t{1} << (smoke_ ? 17 : 20);
    sspec.zipf_alpha = 0.9;
    sspec.update_fraction = 0.05;
    sspec.requests_per_client = requests_per_client;
    sspec.interarrival = sim::microseconds(2);
    sspec.batch_window = sim::microseconds(1);
    sspec.cache_capacity = 4096;
    sspec.seed = window_seed;

    Window w;
    w.fabric = std::make_unique<core::Fabric>(fspec_);
    w.job = std::make_unique<serve::ServingJob>(
        sspec, std::vector<std::size_t>{0, 1, 2, 3},
        std::vector<std::size_t>{4, 5, 6, 7});
    w.fabric->add_custom_job({"serve"}, *w.job);
    w.fabric->add_job(trainer_, tensors_);
    return w;
  }

  std::uint64_t seed_;
  bool smoke_;
  std::size_t requests_per_client_;
  std::size_t trainer_elements_;
  core::TenantFabricSpec fspec_;
  core::JobSpec trainer_;
  core::Fabric::StepTensors tensors_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"sweep_zoo", "omni_twotier", "serve_cotenant"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "sweep_zoo") return std::make_unique<SweepZoo>(seed, smoke);
  if (name == "omni_twotier") return std::make_unique<OmniTwoTier>(seed, smoke);
  if (name == "serve_cotenant") {
    return std::make_unique<ServeCotenant>(seed, smoke);
  }
  return nullptr;
}

}  // namespace perfbench
