#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace omr::baselines {

/// Shared knobs for the baseline collectives. All baselines run over the
/// same simulated fabric as OmniReduce so completion times are comparable.
struct BaselineConfig {
  double bandwidth_bps = 10e9;          // per-NIC, full duplex
  sim::Time one_way_latency = sim::microseconds(10);
  std::size_t chunk_elements = 8192;    // pipelining granularity
  std::size_t header_bytes = 64;        // per-message overhead
  /// Host-side per-byte touch cost (B/s) charged on receive for CPU-bound
  /// stacks (Gloo over TCP); 0 disables (zero-copy RDMA-style).
  double host_copy_bandwidth_Bps = 0.0;
  std::uint64_t seed = 1;
};

namespace detail {

/// Time an all-to-all where node w sends `bytes_matrix[w][p]` opaque bytes
/// to peer p (chunked over the simulated fabric). Building block shared by
/// SparCML phase 1 and Ok-Topk's partition exchange.
sim::Time all_to_all_bytes(
    const std::vector<std::vector<std::size_t>>& bytes_matrix,
    const BaselineConfig& cfg, std::uint64_t* total_tx = nullptr);

}  // namespace detail

/// Outcome of one baseline collective run.
struct BaselineStats {
  sim::Time completion_time = 0;
  std::uint64_t total_tx_bytes = 0;  // wire bytes, all nodes

  double completion_ms() const { return sim::to_milliseconds(completion_time); }
};

}  // namespace omr::baselines
