#include "baselines/agsparse.h"

#include <stdexcept>

#include "baselines/ring.h"
#include "tensor/index_codec.h"

namespace omr::baselines {

tensor::CooTensor detail::merge_in_worker_order(
    const std::vector<tensor::CooTensor>& inputs) {
  tensor::CooTensor merged;
  merged.dim = inputs.front().dim;
  tensor::SparseRangeAccumulator acc(0,
                                     static_cast<std::int64_t>(merged.dim));
  for (const auto& t : inputs) acc.add(t);
  acc.emit(merged);
  return merged;
}

BaselineStats detail::agsparse_allreduce(
    const std::vector<tensor::CooTensor>& inputs, tensor::CooTensor& result,
    const BaselineConfig& cfg,
    AgStack stack, double reduce_mem_bandwidth_Bps, bool compress_indices) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  const std::size_t n = inputs.size();
  // Communication: ring-allgather every worker's (keys, values) payload.
  std::vector<std::size_t> payloads;
  payloads.reserve(n);
  std::size_t total_pairs = 0;
  for (const auto& t : inputs) {
    payloads.push_back(compress_indices
                           ? tensor::coo_wire_bytes_compressed(t.nnz(), t.dim)
                           : t.wire_bytes());
    total_pairs += t.nnz();
  }
  BaselineStats stats;
  stats.completion_time =
      ring_allgather_bytes(payloads, cfg, &stats.total_tx_bytes);

  // Gloo (TCP) copies every received byte through the host once more.
  if (stack == AgStack::kGloo) {
    std::size_t total_bytes = 0;
    for (std::size_t b : payloads) total_bytes += b;
    const double rx_per_node =
        static_cast<double>(total_bytes) * (static_cast<double>(n - 1) / n);
    stats.completion_time += sim::from_seconds(
        rx_per_node / (cfg.host_copy_bandwidth_Bps > 0
                           ? cfg.host_copy_bandwidth_Bps
                           : 6e9));
  }

  // Local reduction: merge N sorted COO lists (read everything once, write
  // the union), memory-bandwidth bound. Performed after communication —
  // AGsparse does not overlap the two (§2.1).
  result = merge_in_worker_order(inputs);
  const double merge_bytes =
      static_cast<double>(total_pairs + result.nnz()) * 8.0;
  stats.completion_time +=
      sim::from_seconds(merge_bytes / reduce_mem_bandwidth_Bps);
  return stats;
}

}  // namespace omr::baselines
