#include "core/hierarchical.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/fabric.h"

namespace omr::core {

namespace {

/// Intra-rack reduce (or, symmetrically, result distribution) for one
/// rack: the rack's servers run a rack-local OmniReduce over their ToR —
/// a non-blocking switch whose one-way crossing is two hops (NIC → ToR →
/// NIC). Aggregation is sharded over the rack's own NICs (colocated);
/// racks have no dedicated aggregator machine. Returns the completion
/// time; `sums` holds the rack sum in every entry on return.
sim::Time reduce_rack(std::vector<tensor::DenseTensor>& sums,
                      const Config& cfg, const ClusterSpec& cluster,
                      sim::Time hop_latency, std::size_t rack) {
  if (sums.size() < 2) return 0;
  ClusterSpec rack_spec = cluster;
  rack_spec.topology = TopologySpec{};  // ideal ToR-local switch
  rack_spec.fabric.one_way_latency = 2 * hop_latency;
  rack_spec.fabric.seed =
      cluster.fabric.seed ^ (0x9e3779b97f4a7c15ULL * (rack + 1));
  rack_spec.deployment = Deployment::kColocated;
  RunStats stats = run_allreduce(sums, cfg, rack_spec, /*verify=*/false);
  return stats.completion_time;
}

}  // namespace

HierarchicalStats run_hierarchical_allreduce(
    std::vector<std::vector<tensor::DenseTensor>>& grads, const Config& cfg,
    const ClusterSpec& cluster, const HierarchicalConfig& hier,
    bool verify) {
  if (grads.empty() || grads.front().empty()) {
    throw std::invalid_argument("need at least one server with one GPU");
  }
  const std::size_t n = grads.front().front().size();
  std::size_t max_gpus = 0;
  for (const auto& server : grads) {
    max_gpus = std::max(max_gpus, server.size());
    for (const auto& g : server) {
      if (g.size() != n) throw std::invalid_argument("tensor size mismatch");
    }
  }

  HierarchicalStats stats;
  tensor::DenseTensor reference;
  if (verify) {
    reference = tensor::DenseTensor(n);
    for (const auto& server : grads) {
      for (const auto& g : server) reference.add_inplace(g);
    }
  }

  // Layer 1: NVLink ring reduce inside each server (NCCL). Ring AllReduce
  // over G GPUs moves 2(G-1)/G * S bytes per GPU; a reduce (to one GPU)
  // costs half of that. The slowest (largest) server gates the start of
  // the inter-server phase.
  std::vector<tensor::DenseTensor> server_sums;
  server_sums.reserve(grads.size());
  for (const auto& server : grads) {
    tensor::DenseTensor sum(n);
    for (const auto& g : server) sum.add_inplace(g);
    server_sums.push_back(std::move(sum));
  }
  const double bytes = static_cast<double>(n) * 4.0;
  const double g = static_cast<double>(max_gpus);
  stats.intra_reduce = max_gpus > 1
                           ? sim::from_seconds((g - 1.0) / g * bytes /
                                               kNvlinkBandwidthBps)
                           : 0;
  stats.intra_broadcast = stats.intra_reduce;

  const std::size_t n_servers = grads.size();
  const bool rack_mode = hier.rack_aware && cluster.topology.two_tier() &&
                         cluster.topology.n_racks > 1 && n_servers > 1;

  if (!rack_mode) {
    // Layer 2: inter-server OmniReduce over the fabric.
    stats.inter = run_allreduce(server_sums, cfg, cluster, /*verify=*/false);
  } else {
    // Layer 2, rack-aware: reduce inside each rack over ToR-local links,
    // exchange one representative per rack across the spine, then
    // distribute back down. Spine traffic shrinks by the rack size.
    const TopologySpec& topo = cluster.topology;
    const sim::Time hop = cluster.fabric.one_way_latency / 2;

    std::vector<std::vector<std::size_t>> members(topo.n_racks);
    for (std::size_t s = 0; s < n_servers; ++s) {
      members[static_cast<std::size_t>(worker_rack(topo, s, n_servers))]
          .push_back(s);
    }

    // Layer 2a: racks reduce concurrently; the slowest gates the spine.
    std::vector<std::size_t> rep_racks;  // non-empty racks, in rack order
    std::vector<tensor::DenseTensor> reps;
    for (std::size_t r = 0; r < topo.n_racks; ++r) {
      if (members[r].empty()) continue;
      std::vector<tensor::DenseTensor> rack_sums;
      rack_sums.reserve(members[r].size());
      for (std::size_t s : members[r]) {
        rack_sums.push_back(std::move(server_sums[s]));
      }
      stats.rack_reduce = std::max(
          stats.rack_reduce, reduce_rack(rack_sums, cfg, cluster, hop, r));
      reps.push_back(rack_sums.front());
      for (std::size_t i = 0; i < members[r].size(); ++i) {
        server_sums[members[r][i]] = std::move(rack_sums[i]);
      }
      rep_racks.push_back(r);
    }

    // Layer 2b: one representative per rack exchanges over the spine. The
    // uplink still carries the whole rack's capacity, not one NIC's worth,
    // so pin it to the narrowest rack's edge divided by the ratio.
    if (reps.size() > 1) {
      ClusterSpec spine_spec = cluster;
      spine_spec.topology.worker_racks.assign(rep_racks.begin(),
                                              rep_racks.end());
      if (spine_spec.topology.uplink_bandwidth_bps <= 0.0) {
        std::size_t min_members = n_servers;
        for (std::size_t r : rep_racks) {
          min_members = std::min(min_members, members[r].size());
        }
        spine_spec.topology.uplink_bandwidth_bps =
            static_cast<double>(min_members) *
            cluster.fabric.worker_bandwidth_bps / topo.oversubscription;
      }
      stats.inter = run_allreduce(reps, cfg, spine_spec, /*verify=*/false);
    }

    // Layer 2c: distribute the global sum back down the racks — the same
    // ToR-local pattern in reverse, so it costs what the rack reduce did.
    stats.rack_broadcast = stats.rack_reduce;
    for (std::size_t i = 0; i < rep_racks.size(); ++i) {
      for (std::size_t s : members[rep_racks[i]]) server_sums[s] = reps[i];
    }
  }

  stats.total = stats.intra_reduce + stats.rack_reduce +
                stats.inter.completion_time + stats.rack_broadcast +
                stats.intra_broadcast;

  // Layer 1 (return): broadcast the result to every GPU.
  for (std::size_t s = 0; s < grads.size(); ++s) {
    for (auto& gpu : grads[s]) gpu = server_sums[s];
  }
  if (verify) {
    double err = 0.0;
    for (const auto& server : grads) {
      for (const auto& t : server) {
        err = std::max(err, tensor::max_abs_diff(t, reference));
      }
    }
    stats.max_error = err;
    std::size_t total_gpus = 0;
    for (const auto& server : grads) total_gpus += server.size();
    stats.verified = err <= 1e-4 * static_cast<double>(total_gpus);
    if (!stats.verified) {
      throw std::logic_error("hierarchical allreduce mismatch");
    }
  }
  return stats;
}

}  // namespace omr::core
