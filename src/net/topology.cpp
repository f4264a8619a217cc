#include "net/topology.h"

#include <stdexcept>

namespace omr::net {

TwoTierFabric::TwoTierFabric(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.n_racks == 0) {
    throw std::invalid_argument("two-tier fabric needs at least one rack");
  }
  if (!(cfg_.oversubscription >= 1.0)) {  // negated: NaN fails too
    throw std::invalid_argument("oversubscription ratio must be >= 1");
  }
  if (!(cfg_.uplink_bandwidth_bps >= 0.0)) {  // 0 = derived; NaN fails
    throw std::invalid_argument("uplink bandwidth must be >= 0");
  }
  for (int r : cfg_.rack_of_nic) {
    if (r < 0 || static_cast<std::size_t>(r) >= cfg_.n_racks) {
      throw std::invalid_argument("rack assignment out of range");
    }
  }
  rack_edge_bps_.assign(cfg_.n_racks, 0.0);
}

int TwoTierFabric::rack_of(NicId nic) const {
  const auto i = static_cast<std::size_t>(nic);
  if (i < rack_of_nic_.size()) return rack_of_nic_[i];
  return static_cast<int>(i % cfg_.n_racks);
}

void TwoTierFabric::add_nic(NicId nic, double tx_bandwidth_bps,
                            double /*rx_bandwidth_bps*/) {
  if (frozen_) {
    throw std::logic_error("cannot add NICs after traffic started");
  }
  const auto i = static_cast<std::size_t>(nic);
  const int rack = i < cfg_.rack_of_nic.size()
                       ? cfg_.rack_of_nic[i]
                       : static_cast<int>(i % cfg_.n_racks);
  rack_of_nic_.push_back(rack);
  rack_edge_bps_[static_cast<std::size_t>(rack)] += tx_bandwidth_bps;
}

void TwoTierFabric::freeze() {
  frozen_ = true;
  intra_.ingress_latency = 2 * cfg_.hop_latency;  // NIC -> ToR -> NIC
  uplink_.resize(cfg_.n_racks);
  downlink_.resize(cfg_.n_racks);
  for (std::size_t r = 0; r < cfg_.n_racks; ++r) {
    double bw = cfg_.uplink_bandwidth_bps;
    if (bw <= 0.0) {
      bw = rack_edge_bps_[r] / cfg_.oversubscription;
      if (bw <= 0.0) bw = 10e9;  // empty rack: nominal capacity, unused
    }
    // Uplink: serialized at the ToR's spine port, then ToR -> spine
    // propagation. Downlink: serialized at the spine's port toward the
    // rack, then spine -> ToR -> NIC propagation (two hops).
    uplink_[r] = add_link({bw, cfg_.hop_latency,
                           "rack" + std::to_string(r) + ".uplink"},
                          cfg_.spine_loss);
    downlink_[r] = add_link({bw, 2 * cfg_.hop_latency,
                             "rack" + std::to_string(r) + ".downlink"},
                            cfg_.spine_loss);
  }
  inter_.resize(cfg_.n_racks * cfg_.n_racks);
  for (std::size_t s = 0; s < cfg_.n_racks; ++s) {
    for (std::size_t d = 0; d < cfg_.n_racks; ++d) {
      if (s == d) continue;
      Path& p = inter_[s * cfg_.n_racks + d];
      p.ingress_latency = cfg_.hop_latency;  // NIC -> ToR
      p.links = {uplink_[s], downlink_[d]};
    }
  }
}

const Path& TwoTierFabric::route(NicId src, NicId dst) {
  if (!frozen_) freeze();
  const auto s = static_cast<std::size_t>(rack_of(src));
  const auto d = static_cast<std::size_t>(rack_of(dst));
  if (s == d) return intra_;
  return inter_[s * cfg_.n_racks + d];
}

}  // namespace omr::net
