#include "core/hierarchical.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace omr::core {

HierarchicalStats run_hierarchical_allreduce(
    std::vector<std::vector<tensor::DenseTensor>>& grads, const Config& cfg,
    const ClusterSpec& cluster, bool verify) {
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

  // Layer 2: inter-server OmniReduce over the fabric.
  stats.inter = run_allreduce(server_sums, cfg, cluster, /*verify=*/false);
  stats.total = stats.intra_reduce + stats.inter.completion_time +
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
