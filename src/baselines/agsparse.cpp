#include "baselines/agsparse.h"

#include <stdexcept>

#include "baselines/ring.h"

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
    const BaselineConfig& cfg, AgStack stack) {
  if (inputs.empty()) throw std::invalid_argument("no workers");
  const std::size_t n = inputs.size();
  // Communication: ring-allgather every worker's (keys, values) payload.
  std::vector<std::size_t> payloads;
  payloads.reserve(n);
  std::size_t total_pairs = 0;
  for (const auto& t : inputs) {
    payloads.push_back(t.wire_bytes());
    total_pairs += t.nnz();
  }
  BaselineStats stats = ring_allgather_bytes(payloads, cfg);

  // Gloo (TCP) copies every received byte through the host once more, at
  // 6 GB/s.
  if (stack == AgStack::kGloo) {
    std::size_t total_bytes = 0;
    for (std::size_t b : payloads) total_bytes += b;
    const double rx_per_node =
        static_cast<double>(total_bytes) * (static_cast<double>(n - 1) / n);
    stats.completion_time += sim::from_seconds(rx_per_node / 6e9);
  }

  // Local reduction: merge N sorted COO lists (read everything once, write
  // the union), memory-bandwidth bound. Performed after communication —
  // AGsparse does not overlap the two (§2.1).
  result = merge_in_worker_order(inputs);
  const double merge_bytes =
      static_cast<double>(total_pairs + result.nnz()) * 8.0;
  stats.completion_time +=
      sim::from_seconds(merge_bytes / kReduceBandwidthBps);
  return stats;
}

}  // namespace omr::baselines
