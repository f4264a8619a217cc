#include "innet/p4_aggregator.h"

#include <stdexcept>
#include <string>

#include "core/stream_layout.h"
#include "innet/slot_pool.h"

namespace omr::innet {

core::RunStats run_allreduce_innet(std::vector<tensor::DenseTensor>& tensors,
                                   const P4Config& cfg) {
  core::Config engine_cfg;
  engine_cfg.block_size = cfg.block_size;
  engine_cfg.packet_elements = cfg.block_size;  // one block per packet
  engine_cfg.num_streams = cfg.num_streams;
  engine_cfg.header_bytes = 64;  // Ethernet + IP + UDP + OmniReduce header
  engine_cfg.switch_multicast = true;
  engine_cfg.fixed_point = true;
  engine_cfg.charge_bitmap_cost = true;

  if (cfg.switch_slots > 0 && !tensors.empty()) {
    // One pipeline register slot per stream: reject the run up front when
    // the job's slot demand exceeds what the switch can dedicate to it.
    const std::size_t demand =
        core::StreamLayout::build(tensors.front().size(), engine_cfg)
            .streams.size();
    SlotPool pool(cfg.switch_slots);
    if (!pool.reserve(/*job=*/0, demand)) {
      throw std::runtime_error(
          "switch slot pool exhausted: need " + std::to_string(demand) +
          " slots, switch has " + std::to_string(cfg.switch_slots));
    }
  }

  core::FabricConfig fabric;
  fabric.worker_bandwidth_bps = cfg.worker_bandwidth_bps;
  // The switch data plane forwards at full bisection: its "NIC" never
  // serializes slower than the sum of worker line rates.
  fabric.aggregator_bandwidth_bps =
      cfg.worker_bandwidth_bps * static_cast<double>(tensors.size());
  fabric.one_way_latency = kSwitchOneWayLatency;
  fabric.seed = cfg.seed;

  device::DeviceModel dev;
  dev.gdr = false;

  core::ClusterSpec cluster =
      core::ClusterSpec::dedicated(/*n_aggregators=*/1, fabric, dev);
  if (cfg.n_racks > 1) {
    cluster.topology =
        core::TopologySpec::two_tier_racks(cfg.n_racks, cfg.oversubscription);
    // The aggregating switch is the spine itself; model its data plane as
    // sitting in rack 0, reached through the rack uplinks.
    cluster.topology.aggregator_racks = {0};
  }
  return core::run_allreduce(tensors, engine_cfg, cluster);
}

}  // namespace omr::innet
