#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace omr::net {

Network::Network(sim::Simulator& simulator, sim::Time one_way_latency,
                 std::uint64_t seed)
    : Network(simulator, std::make_unique<IdealSwitch>(one_way_latency),
              seed) {}

Network::Network(sim::Simulator& simulator, std::unique_ptr<Topology> topology,
                 std::uint64_t seed)
    : sim_(simulator), topo_(std::move(topology)), drop_rng_(seed) {
  if (topo_ == nullptr) throw std::invalid_argument("null topology");
  topo_->set_link_seed(seed);
  // The ideal switch has no interior links: skip the per-message route()
  // call and use the uniform one-way latency directly (the seed hot path).
  if (const auto* ideal = dynamic_cast<const IdealSwitch*>(topo_.get())) {
    latency_ = ideal->one_way_latency();
  } else {
    latency_ = -1;  // sentinel: consult the topology per message
  }
}

NicId Network::add_nic(const NicConfig& cfg) {
  // Negated so a NaN is rejected too: it would reach the Time conversion
  // of every transmission.
  if (!(cfg.tx_bandwidth_bps > 0) || !(cfg.rx_bandwidth_bps > 0)) {
    throw std::invalid_argument("NIC bandwidth must be positive");
  }
  if (!(cfg.rx_message_overhead_ns >= 0)) {
    throw std::invalid_argument("NIC receive overhead must be >= 0");
  }
  nics_.push_back(Nic{cfg, 0, 0, {}});
  const NicId id = static_cast<NicId>(nics_.size() - 1);
  topo_->add_nic(id, cfg.tx_bandwidth_bps, cfg.rx_bandwidth_bps);
  return id;
}

EndpointId Network::attach(Endpoint* endpoint, NicId nic) {
  if (endpoint == nullptr) throw std::invalid_argument("null endpoint");
  if (nic < 0 || nic >= static_cast<NicId>(nics_.size())) {
    throw std::out_of_range("unknown NIC");
  }
  endpoints_.push_back(Attached{endpoint, nic});
  tenant_of_.push_back(0);
  return static_cast<EndpointId>(endpoints_.size() - 1);
}

void check_tenant_weight(double weight) {
  if (!std::isfinite(weight) || weight <= 0.0) {
    throw std::invalid_argument("tenant weight must be finite and > 0");
  }
}

void Network::set_tenants(std::vector<double> weights) {
  for (double w : weights) check_tenant_weight(w);
  tenant_weights_ = std::move(weights);
}

void Network::set_endpoint_tenant(EndpointId ep, int tenant) {
  if (ep < 0 || ep >= static_cast<EndpointId>(endpoints_.size())) {
    throw std::out_of_range("unknown endpoint");
  }
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= n_tenants()) {
    throw std::out_of_range("unknown tenant");
  }
  tenant_of_[static_cast<std::size_t>(ep)] = tenant;
}

const LinkStats& Network::tenant_link_stats(LinkId id, int tenant) const {
  // Lazily-sized rows: a link the tenant never crossed in WFQ mode (or any
  // link in single-tenant mode) has no per-tenant row — report zeroes.
  static const LinkStats kZero{};
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= n_tenants()) {
    throw std::out_of_range("unknown tenant");
  }
  const Link& link = topo_->link(id);
  const auto t = static_cast<std::size_t>(tenant);
  return t < link.tenant_stats.size() ? link.tenant_stats[t] : kZero;
}

void Network::add_nic_flap(NicId nic, sim::Time from, sim::Time until) {
  if (nic < 0 || nic >= static_cast<NicId>(nics_.size())) {
    throw std::out_of_range("unknown NIC");
  }
  nic_flaps_.push_back(NicFlap{nic, from, until});
}

bool Network::nic_down(NicId nic, sim::Time t) const {
  for (const NicFlap& f : nic_flaps_) {
    if (f.nic == nic && t >= f.from && t < f.until) return true;
  }
  return false;
}

sim::Time Network::tx_serialize(NicId nic_id, std::size_t bytes,
                                std::size_t payload_bytes) {
  Nic& nic = nics_[nic_id];
  const sim::Time start = std::max(sim_.now(), nic.tx_free);
  const sim::Time cost = sim::from_seconds(
      static_cast<double>(bytes) * 8.0 / nic.cfg.tx_bandwidth_bps);
  nic.tx_free = start + cost;
  nic.stats.tx_bytes += bytes;
  nic.stats.tx_messages += 1;
  if (tracer_ != nullptr) {
    tracer_->message_tx(nic_id, start, nic.tx_free, bytes, payload_bytes);
  }
  return nic.tx_free;
}

sim::Time Network::traverse_path(NicId src_nic, NicId dst_nic,
                                 sim::Time departure, std::size_t bytes,
                                 std::size_t payload_bytes, int tenant) {
  if (latency_ >= 0) return departure + latency_;  // ideal switch
  const bool weighted = tenant_weights_.size() > 1;
  const Path& path = topo_->route(src_nic, dst_nic);
  sim::Time t = departure + path.ingress_latency;
  for (LinkId id : path.links) {
    Link& link = topo_->link(id);
    if (weighted && link.tenant_busy.size() < tenant_weights_.size()) {
      link.tenant_busy.resize(tenant_weights_.size(), 0);
      link.tenant_gate.resize(tenant_weights_.size(), 0);
      link.tenant_stats.resize(tenant_weights_.size());
    }
    if (!link.down.empty() && link.is_down(t)) {
      // Flapping link (fault injection): the outage eats the message
      // before any loss draw, so a flap never perturbs the seeded loss
      // process sequence of messages outside its window.
      link.stats.dropped_messages += 1;
      if (weighted) {
        link.tenant_stats[static_cast<std::size_t>(tenant)]
            .dropped_messages += 1;
      }
      ++total_dropped_;
      if (tracer_ != nullptr) tracer_->link_drop(id, t, bytes);
      return -1;
    }
    if (!link.loss.lossless() && link.loss.drop(link.loss_rng)) {
      link.stats.dropped_messages += 1;
      if (weighted) {
        link.tenant_stats[static_cast<std::size_t>(tenant)]
            .dropped_messages += 1;
      }
      ++total_dropped_;
      if (tracer_ != nullptr) tracer_->link_drop(id, t, bytes);
      return -1;
    }
    sim::Time start;
    if (weighted) {
      // Piecewise weighted-fair fluid approximation. The message is served
      // at bandwidth * w_ti / W, where W sums the weights of the tenants
      // with booked service (tenant_busy) overlapping the current instant;
      // each time another tenant's backlog drains the rate is recomputed,
      // so a message that only partially overlaps a competing burst pays
      // the shared rate only for the overlap. Idle tenants donate their
      // share: an uncontended link runs at full rate, a saturated one
      // converges to the weight ratios.
      const auto ti = static_cast<std::size_t>(tenant);
      start = std::max(t, link.tenant_gate[ti]);
      double overlap_weight = 0.0;
      for (std::size_t u = 0; u < tenant_weights_.size(); ++u) {
        if (u != ti && link.tenant_busy[u] > start) {
          overlap_weight += tenant_weights_[u];
        }
      }
      double remaining_bits = static_cast<double>(bytes) * 8.0;
      sim::Time cur = start;
      while (remaining_bits > 0.0) {
        double active_weight = tenant_weights_[ti];
        sim::Time horizon = -1;
        for (std::size_t u = 0; u < tenant_weights_.size(); ++u) {
          if (u == ti || link.tenant_busy[u] <= cur) continue;
          active_weight += tenant_weights_[u];
          if (horizon < 0 || link.tenant_busy[u] < horizon) {
            horizon = link.tenant_busy[u];
          }
        }
        const double rate =
            link.cfg.bandwidth_bps * tenant_weights_[ti] / active_weight;
        const double seg_bits =
            horizon < 0 ? remaining_bits
                        : sim::to_seconds(horizon - cur) * rate;
        if (horizon < 0 || seg_bits >= remaining_bits) {
          cur += sim::from_seconds(remaining_bits / rate);
          remaining_bits = 0.0;
        } else {
          remaining_bits -= seg_bits;
          cur = horizon;  // that tenant drained: recompute the active set
        }
      }
      link.tenant_busy[ti] = cur;
      link.tenant_gate[ti] = std::max(link.tenant_gate[ti], cur);
      if (overlap_weight > 0.0) {
        // Capacity conservation across the single pass: the backlogged
        // tenants this message overlaps were priced before it existed, so
        // their service must stretch by the capacity it consumes — the
        // message's full-rate wire time, split across them in weight
        // proportion. The stretch lands on their *gates* (delaying their
        // own next message) rather than their booked service, so it never
        // becomes phantom backlog that third parties price against.
        const double wire_s =
            static_cast<double>(bytes) * 8.0 / link.cfg.bandwidth_bps;
        for (std::size_t u = 0; u < tenant_weights_.size(); ++u) {
          if (u != ti && link.tenant_busy[u] > start) {
            link.tenant_gate[u] += sim::from_seconds(
                wire_s * tenant_weights_[u] / overlap_weight);
          }
        }
      }
      link.busy_until = std::max(link.busy_until, cur);
      link.tenant_stats[ti].tx_bytes += bytes;
      link.tenant_stats[ti].tx_messages += 1;
    } else {
      // Store-and-forward: the hop's port serializes the whole message
      // (FIFO), then propagation to the next hop.
      start = std::max(t, link.busy_until);
      const sim::Time cost = sim::from_seconds(
          static_cast<double>(bytes) * 8.0 / link.cfg.bandwidth_bps);
      link.busy_until = start + cost;
    }
    link.stats.tx_bytes += bytes;
    link.stats.tx_messages += 1;
    // The message's own serialization finish: its tenant cursor in
    // weighted mode (busy_until only tracks the link-wide frontier there),
    // the shared FIFO cursor otherwise.
    const sim::Time done =
        weighted ? link.tenant_busy[static_cast<std::size_t>(tenant)]
                 : link.busy_until;
    if (tracer_ != nullptr) {
      const auto lane = static_cast<std::size_t>(id);
      if (lane >= link_lane_named_.size()) link_lane_named_.resize(lane + 1);
      if (!link_lane_named_[lane]) {
        link_lane_named_[lane] = true;
        tracer_->name_process(telemetry::link_pid(lane),
                              "link " + link.cfg.name);
      }
      tracer_->link_tx(id, start, done, bytes, payload_bytes);
    }
    t = done + link.cfg.latency;
  }
  return t;
}

void Network::deliver(EndpointId src, EndpointId dst, MessagePtr msg,
                      sim::Time departure, std::size_t bytes,
                      std::size_t payload_bytes) {
  if (!nic_flaps_.empty() && nic_down(endpoints_[src].nic, departure)) {
    // Sender's NIC is flapped at wire departure: the message never enters
    // the fabric, so link loss processes see an unchanged draw sequence.
    nics_[endpoints_[src].nic].stats.dropped_messages += 1;
    ++total_dropped_;
    if (tracer_ != nullptr) {
      tracer_->message_drop(endpoints_[src].nic, departure, bytes, dst);
    }
    return;
  }
  const sim::Time arrival = traverse_path(
      endpoints_[src].nic, endpoints_[dst].nic, departure, bytes,
      payload_bytes, endpoint_tenant(src));
  if (arrival < 0) return;  // eaten by a link's loss process
  if (!nic_flaps_.empty() && nic_down(endpoints_[dst].nic, arrival)) {
    nics_[endpoints_[dst].nic].stats.dropped_messages += 1;
    ++total_dropped_;
    if (tracer_ != nullptr) {
      tracer_->message_drop(endpoints_[dst].nic, arrival, bytes, dst);
    }
    return;
  }
  if (!fabric_loss_.lossless() && fabric_loss_.drop(drop_rng_)) {
    nics_[endpoints_[dst].nic].stats.dropped_messages += 1;
    ++total_dropped_;
    if (tracer_ != nullptr) {
      tracer_->message_drop(endpoints_[dst].nic, arrival, bytes, dst);
    }
    return;
  }
  // RX serialization is a shared resource per NIC: model the receive side
  // of incast (N workers into one aggregator) correctly. We reserve the RX
  // window at send time; FIFO order per destination preserves in-order
  // delivery between any endpoint pair.
  Nic& dnic = nics_[endpoints_[dst].nic];
  const sim::Time rx_start = std::max(arrival, dnic.rx_free);
  const sim::Time rx_cost =
      sim::from_seconds(static_cast<double>(bytes) * 8.0 /
                        dnic.cfg.rx_bandwidth_bps) +
      sim::from_seconds(dnic.cfg.rx_message_overhead_ns * 1e-9);
  dnic.rx_free = rx_start + rx_cost;
  dnic.stats.rx_bytes += bytes;
  dnic.stats.rx_messages += 1;
  if (tracer_ != nullptr) {
    tracer_->message_rx(endpoints_[dst].nic, rx_start, dnic.rx_free, bytes,
                        payload_bytes);
  }
  Endpoint* receiver = endpoints_[dst].endpoint;
  sim_.schedule_at(dnic.rx_free, [receiver, src, msg = std::move(msg)]() {
    receiver->on_message(src, msg);
  });
}

void Network::send(EndpointId src, EndpointId dst, MessagePtr msg) {
  assert(src >= 0 && src < static_cast<EndpointId>(endpoints_.size()));
  assert(dst >= 0 && dst < static_cast<EndpointId>(endpoints_.size()));
  const std::size_t bytes = msg->wire_bytes();
  const std::size_t payload = msg->payload_bytes();
  const sim::Time departure = tx_serialize(endpoints_[src].nic, bytes, payload);
  deliver(src, dst, std::move(msg), departure, bytes, payload);
}

void Network::send_switch_multicast(EndpointId src,
                                    std::span<const EndpointId> dsts,
                                    MessagePtr msg) {
  const std::size_t bytes = msg->wire_bytes();
  const std::size_t payload = msg->payload_bytes();
  const sim::Time departure = tx_serialize(endpoints_[src].nic, bytes, payload);
  for (EndpointId dst : dsts) deliver(src, dst, msg, departure, bytes, payload);
}

}  // namespace omr::net
