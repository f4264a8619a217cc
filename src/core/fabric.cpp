#include "core/fabric.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace omr::core {

namespace {

/// Throw unless `p` is a probability: in [0, 1], or [0, 1) when a value of
/// 1 would drop every message. NaN fails both comparisons.
void require_probability(double p, bool one_allowed, const std::string& what) {
  if (!(p >= 0.0 && (one_allowed ? p <= 1.0 : p < 1.0))) {
    throw std::invalid_argument(what + " must be in [0, 1" +
                                (one_allowed ? "]" : ")"));
  }
}

/// Reject a loss spec that is not made of probabilities or that can drop
/// every message forever: a rate of 1, a Good state that drops everything,
/// or an absorbing Bad state that drops everything would make Algorithm 2
/// retransmit without end.
void validate_loss(double rate, const net::GilbertElliottConfig& ge,
                   const std::string& what) {
  require_probability(rate, false, what + " loss rate");
  require_probability(ge.p_good_to_bad, true, what + " burst p_good_to_bad");
  if (!ge.enabled()) return;
  require_probability(ge.p_bad_to_good, true, what + " burst p_bad_to_good");
  require_probability(ge.loss_good, false, what + " burst loss_good");
  require_probability(ge.loss_bad, true, what + " burst loss_bad");
  if (ge.loss_bad == 1.0 && ge.p_bad_to_good == 0.0) {
    throw std::invalid_argument(
        what + " burst loss never ends: loss_bad is 1 and p_bad_to_good 0");
  }
}

}  // namespace

int worker_rack(const TopologySpec& topo, std::size_t w,
                std::size_t n_workers) {
  if (w < topo.worker_racks.size()) return topo.worker_racks[w];
  if (n_workers == 0) return 0;
  // Contiguous fill: servers of one rack are physical neighbours.
  return static_cast<int>(w * topo.n_racks / n_workers);
}

int aggregator_rack(const TopologySpec& topo, std::size_t a) {
  if (a < topo.aggregator_racks.size()) return topo.aggregator_racks[a];
  return static_cast<int>(a % topo.n_racks);
}

std::vector<int> resolve_nic_racks(const TopologySpec& topo,
                                   std::size_t n_workers,
                                   std::size_t n_dedicated_aggs) {
  if (topo.n_racks == 0) {
    throw std::invalid_argument("two-tier fabric needs at least one rack");
  }
  if (!topo.worker_racks.empty() && topo.worker_racks.size() != n_workers) {
    throw std::invalid_argument("worker rack count != worker count");
  }
  std::vector<int> racks;
  racks.reserve(n_workers + n_dedicated_aggs);
  for (std::size_t w = 0; w < n_workers; ++w) {
    racks.push_back(worker_rack(topo, w, n_workers));
  }
  for (std::size_t a = 0; a < n_dedicated_aggs; ++a) {
    racks.push_back(aggregator_rack(topo, a));
  }
  return racks;
}

std::unique_ptr<net::Topology> make_topology(const TopologySpec& topo,
                                             sim::Time one_way_latency,
                                             std::vector<int> rack_of_nic) {
  validate_loss(topo.spine_loss_rate, topo.spine_burst_loss, "spine");
  if (one_way_latency < 0) {
    throw std::invalid_argument("one_way_latency must be non-negative");
  }
  if (!topo.two_tier()) {
    return std::make_unique<net::IdealSwitch>(one_way_latency);
  }
  net::TwoTierFabric::Config cfg;
  cfg.n_racks = topo.n_racks;
  cfg.oversubscription = topo.oversubscription;
  cfg.hop_latency = one_way_latency / 2;
  cfg.uplink_bandwidth_bps = topo.uplink_bandwidth_bps;
  cfg.rack_of_nic = std::move(rack_of_nic);
  if (topo.spine_burst_loss.enabled()) {
    cfg.spine_loss = net::LossProcess::gilbert_elliott(topo.spine_burst_loss);
  } else if (topo.spine_loss_rate > 0.0) {
    cfg.spine_loss = net::LossProcess::bernoulli(topo.spine_loss_rate);
  }
  return std::make_unique<net::TwoTierFabric>(std::move(cfg));
}

void apply_fabric_loss(net::Network& network, const FabricConfig& fabric) {
  validate_loss(fabric.loss_rate, fabric.burst_loss, "fabric");
  network.set_loss_rate(fabric.loss_rate);
  if (fabric.burst_loss.enabled()) {
    network.set_loss_model(
        net::LossProcess::gilbert_elliott(fabric.burst_loss));
  }
}

std::vector<telemetry::LinkReport> collect_link_reports(
    const net::Network& network,
    const std::vector<telemetry::LinkReport>* base) {
  const net::Topology& topo = network.topology();
  std::vector<telemetry::LinkReport> out;
  out.reserve(topo.num_links());
  for (std::size_t l = 0; l < topo.num_links(); ++l) {
    const net::LinkStats& s = topo.link_stats(static_cast<net::LinkId>(l));
    telemetry::LinkReport r;
    r.name = topo.link_name(static_cast<net::LinkId>(l));
    r.tx_bytes = s.tx_bytes;
    r.tx_messages = s.tx_messages;
    r.dropped_messages = s.dropped_messages;
    if (base != nullptr && l < base->size()) {
      r.tx_bytes -= (*base)[l].tx_bytes;
      r.tx_messages -= (*base)[l].tx_messages;
      r.dropped_messages -= (*base)[l].dropped_messages;
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace omr::core
