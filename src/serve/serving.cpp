#include "serve/serving.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "net/network.h"
#include "serve/cache.h"

namespace omr::serve {

namespace {

/// Latency lanes share one fixed log-spaced bin layout (100 ns .. 100 ms),
/// so serialized histograms are byte-stable and mergeable across clients.
constexpr double kLatencyHistLo = 100.0;
constexpr double kLatencyHistHi = 100e6;
constexpr std::size_t kLatencyHistBins = 64;

telemetry::Histogram latency_histogram() {
  return telemetry::Histogram::exponential(kLatencyHistLo, kLatencyHistHi,
                                           kLatencyHistBins);
}

sim::Time cost_ns(double ns) {
  return static_cast<sim::Time>(std::llround(ns));
}

/// One embedding lookup or update on the wire. Updates push the row
/// (embedding_dim * 4 payload bytes); lookups are header-only requests.
struct ServeRequest final : net::Message {
  std::uint32_t client = 0;
  std::uint32_t seq = 0;  // per-client request number
  std::uint64_t key = 0;
  bool update = false;
  sim::Time issued_at = 0;
  std::size_t header = 64;
  std::size_t payload = 0;

  std::size_t wire_bytes() const override { return header + payload; }
  std::size_t payload_bytes() const override { return payload; }
};

/// Shard's answer. Lookups carry the row back; updates are header-only
/// acks. `issued_at` is echoed so the client computes end-to-end latency
/// without per-request bookkeeping.
struct ServeResponse final : net::Message {
  std::uint32_t seq = 0;
  bool update = false;
  bool cache_hit = false;
  std::uint32_t version = 0;
  sim::Time issued_at = 0;
  std::size_t header = 64;
  std::size_t payload = 0;

  std::size_t wire_bytes() const override { return header + payload; }
  std::size_t payload_bytes() const override { return payload; }
};

/// Serving control plane: 64-byte frames on the simulated fabric (like
/// core::Fabric's JobCtl).
struct ServeCtl final : net::Message {
  enum Kind : std::uint8_t { kStart, kDone };
  Kind kind = kStart;
  std::uint32_t client = 0;
  sim::Time finish = 0;  // kDone: client's last-response arrival time

  std::size_t wire_bytes() const override { return 64; }
};

}  // namespace

// ---------------------------------------------------------------------------
// PsShard

/// One parameter-server shard: batches arriving requests within the
/// coalescing window, then serves the batch in arrival order on a serial
/// CPU (busy-cursor model). The store is the sparse_kv shape: an implicit
/// sorted base run holding every row at version 0, overlaid by a write
/// delta mapping key -> current version; lookups read the delta first and
/// fall back to the base.
class ServingJob::PsShard final : public net::Endpoint {
 public:
  PsShard(ServingJob& job, std::size_t shard)
      : job_(job),
        shard_(shard),
        cache_(job.spec_.cache_policy, job.spec_.cache_capacity) {}

  void on_message(net::EndpointId from, const net::MessagePtr& msg) override {
    const auto* req = dynamic_cast<const ServeRequest*>(msg.get());
    if (req == nullptr) {
      throw std::logic_error("ps shard received unknown message");
    }
    sim::Simulator& sim = job_.net_->simulator();
    const sim::Time now = sim.now();
    if (first_arrival < 0) first_arrival = now;
    pending_.push_back({from, req->seq, req->key, req->update,
                        req->issued_at});
    if (job_.spec_.batch_window <= 0) {
      flush(now);
      return;
    }
    if (pending_.size() == 1) {
      // First request of a new batch arms the flush timer; later arrivals
      // within the window coalesce into the same batch.
      const sim::Time at = now + job_.spec_.batch_window;
      sim.schedule_at(at, [this, at] { flush(at); });
    }
  }

  net::EndpointId ep = -1;

  // Counters swept by ServingJob::finalize (post-run, single-threaded).
  std::uint64_t requests = 0;
  std::uint64_t lookups = 0;
  std::uint64_t updates = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t batches = 0;
  std::uint64_t occupancy_sum = 0;
  sim::Time busy_ns = 0;
  sim::Time first_arrival = -1;
  sim::Time last_completion = 0;
  const EmbeddingCache& cache() const { return cache_; }
  std::size_t delta_keys() const { return delta_.size(); }

 private:
  struct Pending {
    net::EndpointId from;
    std::uint32_t seq;
    std::uint64_t key;
    bool update;
    sim::Time issued_at;
  };

  void flush(sim::Time now) {
    ++batches;
    occupancy_sum += pending_.size();
    const core::ServeSpec& spec = job_.spec_;
    cpu_free_ = std::max(cpu_free_, now);
    const sim::Time overhead = cost_ns(spec.batch_overhead_ns);
    cpu_free_ += overhead;
    busy_ns += overhead;
    for (const Pending& p : pending_) {
      ++requests;
      auto resp = std::make_shared<ServeResponse>();
      resp->seq = p.seq;
      resp->update = p.update;
      resp->issued_at = p.issued_at;
      resp->header = spec.request_bytes;
      sim::Time service;
      if (p.update) {
        ++updates;
        const std::uint32_t v = ++delta_[p.key];
        cache_.put(p.key, v);  // write-through: hot rows stay fresh
        resp->version = v;
        service = cost_ns(spec.update_ns);
      } else {
        ++lookups;
        std::uint32_t v = 0;
        if (cache_.lookup(p.key, &v)) {
          ++hits;
          resp->cache_hit = true;
          service = cost_ns(spec.hit_ns);
        } else {
          ++misses;
          const auto it = delta_.find(p.key);
          v = it != delta_.end() ? it->second : 0;  // base run: version 0
          cache_.put(p.key, v);                     // fill on miss
          service = cost_ns(spec.miss_ns);
        }
        resp->version = v;
        resp->payload = spec.embedding_dim * 4;
      }
      cpu_free_ += service;
      busy_ns += service;
      last_completion = cpu_free_;
      if (cpu_free_ <= now) {
        job_.net_->send(ep, p.from, std::move(resp));
      } else {
        sim::Simulator& sim = job_.net_->simulator();
        sim.schedule_at(cpu_free_, [this, from = p.from,
                                    resp = std::move(resp)]() mutable {
          job_.net_->send(ep, from, std::move(resp));
        });
      }
    }
    pending_.clear();
  }

  ServingJob& job_;
  std::size_t shard_;
  EmbeddingCache cache_;
  std::unordered_map<std::uint64_t, std::uint32_t> delta_;
  std::vector<Pending> pending_;
  sim::Time cpu_free_ = 0;
};

// ---------------------------------------------------------------------------
// ClientEndpoint

/// Open-loop traffic generator + latency recorder for one client machine.
/// Requests depart on a fixed absolute schedule (start + i * interarrival)
/// with keys drawn from the shared Zipf sampler via a per-client forked
/// rng stream — the issue sequence never depends on response timing, so
/// per-shard arrival order (and with it every cache hit/miss decision) is
/// invariant under cache capacity and service-time changes. For the same
/// reason, and because rng_ feeds nothing else, the (key, update) pairs
/// are drawn kDrawChunk requests ahead, in the same order (key, then
/// update flag), so the sampler's table stays warm across a chunk.
class ServingJob::ClientEndpoint final : public net::Endpoint {
 public:
  ClientEndpoint(ServingJob& job, std::size_t idx, sim::Rng rng)
      : lookup_hist(latency_histogram()),
        lookup_hit_hist(latency_histogram()),
        lookup_miss_hist(latency_histogram()),
        update_hist(latency_histogram()),
        job_(job),
        idx_(idx),
        rng_(rng) {}

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    if (const auto* ctl = dynamic_cast<const ServeCtl*>(msg.get())) {
      if (ctl->kind != ServeCtl::kStart) {
        throw std::logic_error("serve client received unexpected control");
      }
      start = job_.net_->simulator().now();
      issue(0);
      return;
    }
    const auto* resp = dynamic_cast<const ServeResponse*>(msg.get());
    if (resp == nullptr) {
      throw std::logic_error("serve client received unknown message");
    }
    if (outstanding == 0) {
      throw std::logic_error("serve client: response with nothing in flight");
    }
    --outstanding;
    ++served;
    const sim::Time now = job_.net_->simulator().now();
    const auto latency = static_cast<double>(now - resp->issued_at);
    if (resp->update) {
      update_hist.add(latency);
    } else {
      lookup_hist.add(latency);
      (resp->cache_hit ? lookup_hit_hist : lookup_miss_hist).add(latency);
    }
    if (issued == job_.spec_.requests_per_client && outstanding == 0) {
      auto done = std::make_shared<ServeCtl>();
      done->kind = ServeCtl::kDone;
      done->client = static_cast<std::uint32_t>(idx_);
      done->finish = now;
      job_.net_->send(ep, job_.controller_ep(), std::move(done));
    }
  }

  net::EndpointId ep = -1;
  std::uint64_t issued = 0;
  std::uint64_t served = 0;
  std::uint64_t outstanding = 0;
  sim::Time start = 0;
  telemetry::Histogram lookup_hist;
  telemetry::Histogram lookup_hit_hist;
  telemetry::Histogram lookup_miss_hist;
  telemetry::Histogram update_hist;

 private:
  void issue(std::uint32_t r) {
    sim::Simulator& sim = job_.net_->simulator();
    const sim::Time now = sim.now();
    const core::ServeSpec& spec = job_.spec_;
    if (r % kDrawChunk == 0) draw_chunk(r);
    const Draw& draw = draws_[r % kDrawChunk];
    auto req = std::make_shared<ServeRequest>();
    req->client = static_cast<std::uint32_t>(idx_);
    req->seq = r;
    req->key = draw.key;
    req->update = draw.update;
    req->issued_at = now;
    req->header = spec.request_bytes;
    if (req->update) req->payload = spec.embedding_dim * 4;
    const std::size_t shard = job_.shard_map_.shard_of(req->key);
    ++issued;
    ++outstanding;
    job_.net_->send(ep, job_.shard_eps_[shard], std::move(req));
    if (r + 1 < spec.requests_per_client) {
      const sim::Time at =
          start + static_cast<sim::Time>(r + 1) * spec.interarrival;
      sim.schedule_at(at, [this, r] { issue(r + 1); });
    }
  }

  static constexpr std::uint32_t kDrawChunk = 64;

  struct Draw {
    std::uint64_t key = 0;
    bool update = false;
  };

  /// Draws the pairs of requests [first, first + kDrawChunk), stopping at
  /// the last request of the schedule.
  void draw_chunk(std::uint32_t first) {
    const core::ServeSpec& spec = job_.spec_;
    const std::size_t count = std::min<std::size_t>(
        kDrawChunk, spec.requests_per_client - first);
    for (std::size_t j = 0; j < count; ++j) {
      draws_[j].key = job_.zipf_.next(rng_);
      draws_[j].update = rng_.next_bool(spec.update_fraction);
    }
  }

  ServingJob& job_;
  std::size_t idx_;
  sim::Rng rng_;
  std::array<Draw, kDrawChunk> draws_;
};

// ---------------------------------------------------------------------------
// Controller

/// Serving-job sequencer on the first client machine: fans kStart out to
/// every client, then collects one kDone per drained client.
class ServingJob::Controller final : public net::Endpoint {
 public:
  explicit Controller(ServingJob& job) : job_(job) {}

  void kickoff() {
    for (const auto& client : job_.clients_) {
      auto start = std::make_shared<ServeCtl>();
      start->kind = ServeCtl::kStart;
      job_.net_->send(ep, client->ep, std::move(start));
    }
  }

  void on_message(net::EndpointId /*from*/,
                  const net::MessagePtr& msg) override {
    const auto* ctl = dynamic_cast<const ServeCtl*>(msg.get());
    if (ctl == nullptr || ctl->kind != ServeCtl::kDone) {
      throw std::logic_error("serve controller expects only done messages");
    }
    if (dones_ >= job_.clients_.size()) {
      throw std::logic_error("serve controller: unexpected extra done");
    }
    ++dones_;
    finish = std::max(finish, ctl->finish);
    if (dones_ == job_.clients_.size()) done = true;
  }

  net::EndpointId ep = -1;
  bool done = false;
  sim::Time finish = 0;

 private:
  ServingJob& job_;
  std::size_t dones_ = 0;
};

// ---------------------------------------------------------------------------
// ServingJob

ServingJob::ServingJob(const core::ServeSpec& spec,
                       std::vector<std::size_t> client_machines,
                       std::vector<std::size_t> shard_machines,
                       std::string name)
    : spec_(spec),
      name_(std::move(name)),
      client_machines_(std::move(client_machines)),
      shard_machines_(std::move(shard_machines)),
      shard_map_(spec.routing, spec.n_shards, spec.key_space),
      zipf_(spec.key_space, spec.zipf_alpha) {
  if (spec_.n_clients == 0) {
    throw std::invalid_argument("serving job needs clients");
  }
  if (client_machines_.size() != spec_.n_clients) {
    throw std::invalid_argument("client machine count != n_clients");
  }
  if (shard_machines_.size() != spec_.n_shards) {
    throw std::invalid_argument("shard machine count != n_shards");
  }
  if (spec_.requests_per_client == 0) {
    throw std::invalid_argument("serving job needs requests");
  }
  if (spec_.embedding_dim == 0) {
    throw std::invalid_argument("serving job needs an embedding dim");
  }
  if (spec_.update_fraction < 0.0 || spec_.update_fraction > 1.0) {
    throw std::invalid_argument("update fraction must be in [0, 1]");
  }
  if (spec_.interarrival < 0 || spec_.batch_window < 0) {
    throw std::invalid_argument("serving times must be non-negative");
  }
  if (spec_.hit_ns < 0 || spec_.miss_ns < 0 || spec_.update_ns < 0 ||
      spec_.batch_overhead_ns < 0) {
    throw std::invalid_argument("serving costs must be non-negative");
  }
}

ServingJob::~ServingJob() = default;

net::EndpointId ServingJob::controller_ep() const { return controller_->ep; }

void ServingJob::attach(net::Network& net,
                        const std::vector<net::NicId>& machine_nics) {
  if (net_ != nullptr) throw std::logic_error("serving job attached twice");
  net_ = &net;
  for (std::size_t m : client_machines_) {
    if (m >= machine_nics.size()) {
      throw std::invalid_argument("client machine out of range");
    }
  }
  for (std::size_t m : shard_machines_) {
    if (m >= machine_nics.size()) {
      throw std::invalid_argument("shard machine out of range");
    }
  }
  sim::Rng master(spec_.seed);
  for (std::size_t c = 0; c < spec_.n_clients; ++c) {
    clients_.push_back(
        std::make_unique<ClientEndpoint>(*this, c, master.fork()));
    clients_.back()->ep =
        net.attach(clients_.back().get(), machine_nics[client_machines_[c]]);
    all_eps_.push_back(clients_.back()->ep);
  }
  for (std::size_t s = 0; s < spec_.n_shards; ++s) {
    shards_.push_back(std::make_unique<PsShard>(*this, s));
    shards_.back()->ep =
        net.attach(shards_.back().get(), machine_nics[shard_machines_[s]]);
    shard_eps_.push_back(shards_.back()->ep);
    all_eps_.push_back(shards_.back()->ep);
  }
  controller_ = std::make_unique<Controller>(*this);
  controller_->ep =
      net.attach(controller_.get(), machine_nics[client_machines_[0]]);
  all_eps_.push_back(controller_->ep);
}

std::vector<net::EndpointId> ServingJob::endpoints() const {
  return all_eps_;
}

void ServingJob::kickoff() {
  if (net_ == nullptr) throw std::logic_error("serving job not attached");
  controller_->kickoff();
}

bool ServingJob::done() const {
  return controller_ != nullptr && controller_->done;
}

sim::Time ServingJob::finish_time() const {
  return controller_ != nullptr ? controller_->finish : 0;
}

void ServingJob::finalize() {
  telemetry::ServeReport r;
  r.name = name_;
  r.n_shards = spec_.n_shards;
  r.n_clients = spec_.n_clients;
  r.key_space = spec_.key_space;
  r.cache_capacity = spec_.cache_capacity;
  r.cache_policy =
      spec_.cache_capacity == 0
          ? "none"
          : (spec_.cache_policy == core::ServeSpec::CachePolicy::kLfu
                 ? "lfu"
                 : "lru");
  r.routing =
      spec_.routing == core::ServeSpec::Routing::kRange ? "range" : "hash";
  r.zipf_alpha = spec_.zipf_alpha;
  r.batch_window = spec_.batch_window;
  r.finish = controller_->finish;

  telemetry::ServeLatencyLane lookup{"lookup", latency_histogram()};
  telemetry::ServeLatencyLane lookup_hit{"lookup_hit", latency_histogram()};
  telemetry::ServeLatencyLane lookup_miss{"lookup_miss", latency_histogram()};
  telemetry::ServeLatencyLane update{"update", latency_histogram()};
  bool first = true;
  for (const auto& client : clients_) {
    r.requests_issued += client->issued;
    r.responses_received += client->served;
    r.in_flight_at_drain += client->outstanding;
    lookup.latency_ns.merge(client->lookup_hist);
    lookup_hit.latency_ns.merge(client->lookup_hit_hist);
    lookup_miss.latency_ns.merge(client->lookup_miss_hist);
    update.latency_ns.merge(client->update_hist);
    r.first_issue = first ? client->start : std::min(r.first_issue,
                                                     client->start);
    first = false;
  }
  std::uint64_t shard_requests = 0;
  for (const auto& shard : shards_) {
    telemetry::ServeShardSummary s;
    s.shard = r.shards.size();
    s.requests = shard->requests;
    s.lookups = shard->lookups;
    s.updates = shard->updates;
    s.cache_hits = shard->hits;
    s.cache_misses = shard->misses;
    s.cache_evictions = shard->cache().evictions();
    s.batches = shard->batches;
    s.mean_batch_occupancy =
        shard->batches > 0 ? static_cast<double>(shard->occupancy_sum) /
                                 static_cast<double>(shard->batches)
                           : 0.0;
    s.hot_keys = shard->delta_keys();
    s.busy_ns = shard->busy_ns;
    const sim::Time active = shard->first_arrival >= 0
                                 ? shard->last_completion - shard->first_arrival
                                 : 0;
    s.qps = active > 0 ? static_cast<double>(shard->requests) /
                             sim::to_seconds(active)
                       : 0.0;
    shard_requests += shard->requests;
    r.lookups += shard->lookups;
    r.updates += shard->updates;
    r.cache_hits += shard->hits;
    r.cache_misses += shard->misses;
    r.shards.push_back(std::move(s));
  }
  r.hit_rate = r.lookups > 0 ? static_cast<double>(r.cache_hits) /
                                   static_cast<double>(r.lookups)
                             : 0.0;

  for (auto* lane : {&lookup, &lookup_hit, &lookup_miss, &update}) {
    lane->p50_ns = telemetry::histogram_quantile(lane->latency_ns, 0.50);
    lane->p99_ns = telemetry::histogram_quantile(lane->latency_ns, 0.99);
    lane->p999_ns = telemetry::histogram_quantile(lane->latency_ns, 0.999);
  }
  r.lanes.push_back(std::move(lookup));
  r.lanes.push_back(std::move(lookup_hit));
  r.lanes.push_back(std::move(lookup_miss));
  r.lanes.push_back(std::move(update));

  // Conservation: every issued request was served exactly once and nothing
  // is in flight after the drain. Violations are protocol bugs, not data.
  const std::uint64_t expected = static_cast<std::uint64_t>(spec_.n_clients) *
                                 spec_.requests_per_client;
  auto fail = [this](const std::string& what) {
    throw std::logic_error("serving job \"" + name_ +
                           "\" conservation violation: " + what);
  };
  if (r.requests_issued != expected) fail("issued != clients * requests");
  if (r.in_flight_at_drain != 0) fail("requests in flight at drain");
  if (r.responses_received != r.requests_issued) fail("served != issued");
  if (shard_requests != r.requests_issued) fail("shard requests != issued");
  if (r.lookups + r.updates != r.requests_issued) {
    fail("lookups + updates != issued");
  }
  if (r.cache_hits + r.cache_misses != r.lookups) {
    fail("hits + misses != lookups");
  }
  report_ = std::move(r);
}

void ServingJob::fill_report(telemetry::FabricReport& out) const {
  out.serve.push_back(report_);
}

}  // namespace omr::serve
