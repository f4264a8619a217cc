#include "core/wiring.h"

#include <algorithm>

#include "core/faults.h"
#include "perfmodel/perfmodel.h"

namespace omr::core {

ProtocolWiring wire_protocol(const Config& cfg, net::Network& net,
                             const std::vector<net::NicId>& worker_nics,
                             const std::vector<net::NicId>& agg_nics,
                             const WiringOptions& opts) {
  const std::size_t n_workers = worker_nics.size();
  ProtocolWiring w;
  for (std::size_t i = 0; i < n_workers; ++i) {
    w.workers.push_back(std::make_unique<Worker>(
        cfg, net, static_cast<std::uint32_t>(i)));
    w.workers.back()->set_tracer(opts.tracer);
    w.workers.back()->set_faults(opts.faults);
    w.worker_eps.push_back(net.attach(w.workers.back().get(),
                                      worker_nics[i]));
    w.workers.back()->bind(w.worker_eps.back());
  }
  for (std::size_t a = 0; a < agg_nics.size(); ++a) {
    w.aggregators.push_back(
        std::make_unique<Aggregator>(cfg, net, n_workers));
    w.aggregators.back()->set_tracer(opts.tracer,
                                     telemetry::aggregator_pid(a));
    w.aggregators.back()->set_faults(opts.faults, a);
    w.agg_eps.push_back(net.attach(w.aggregators.back().get(), agg_nics[a]));
    w.aggregators.back()->bind(w.agg_eps.back(), w.worker_eps);
    if (opts.faults != nullptr) {
      opts.faults->register_aggregator(w.agg_eps.back(), a);
    }
  }
  return w;
}

RetransmitTimeout size_retransmit_timeout(
    const Config& cfg, const StreamLayout& layout,
    const std::vector<std::size_t>& streams_on_agg, net::Network& net,
    const std::vector<net::NicId>& worker_nics,
    const std::vector<net::NicId>& agg_nics) {
  RetransmitTimeout out;
  if (!cfg.loss_recovery) return out;
  out.rto = cfg.retransmit_timeout;
  if (layout.streams.empty() || worker_nics.empty() || agg_nics.empty()) {
    return out;
  }

  perfmodel::SlotRoundParams p;
  p.n_workers = worker_nics.size();
  p.header_bytes = static_cast<double>(
      cfg.header_bytes + layout.width * kPerBlockMetaBytes);
  p.payload_bytes =
      static_cast<double>(layout.width * cfg.block_size * cfg.value_bytes);
  p.dense = cfg.dense_mode;
  p.multicast = cfg.switch_multicast;
  net::Topology& topo = net.topology();
  double worst = 0.0;
  for (std::size_t a = 0; a < agg_nics.size(); ++a) {
    const net::NicId nic = agg_nics[a];
    p.streams_on_node = streams_on_agg[a];
    if (p.streams_on_node == 0) continue;
    const net::NicConfig& nic_cfg = net.nic_config(nic);
    p.nic_bandwidth_bps =
        std::min(nic_cfg.tx_bandwidth_bps, nic_cfg.rx_bandwidth_bps);
    std::size_t cross = 0;
    sim::Time alpha = 0;
    p.uplink_bandwidth_bps = 0.0;
    for (net::NicId w : worker_nics) {
      const net::Path& path = topo.route(nic, w);
      sim::Time latency = path.ingress_latency;
      for (net::LinkId l : path.links) latency += topo.link(l).cfg.latency;
      alpha = std::max(alpha, latency);
      if (path.links.empty()) continue;
      ++cross;
      p.uplink_bandwidth_bps = topo.link(path.links.front()).cfg.bandwidth_bps;
    }
    p.cross_rack_fraction =
        static_cast<double>(cross) / static_cast<double>(p.n_workers);
    p.alpha_s = sim::to_seconds(alpha);
    worst = std::max(worst, perfmodel::slot_round(p).seconds());
  }
  out.round_model = sim::from_seconds(worst);
  out.rto = std::max(cfg.retransmit_timeout,
                     sim::from_seconds(perfmodel::kRtoPerRound * worst));
  return out;
}

}  // namespace omr::core
