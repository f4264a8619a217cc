#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace omr::baselines {

/// Shared knobs for the baseline collectives. All baselines run over the
/// same simulated fabric as OmniReduce so completion times are comparable.
/// That fabric is a lossless ideal switch, so it draws no random numbers.
struct BaselineConfig {
  double bandwidth_bps = 10e9;          // per-NIC, full duplex
  sim::Time one_way_latency = sim::microseconds(10);
  std::size_t chunk_elements = 8192;    // pipelining granularity
};

/// Outcome of one baseline collective run.
struct BaselineStats {
  sim::Time completion_time = 0;
  std::uint64_t total_tx_bytes = 0;  // wire bytes, all nodes

  double completion_ms() const { return sim::to_milliseconds(completion_time); }

  /// Append a phase that runs after this one.
  BaselineStats& operator+=(const BaselineStats& next) {
    completion_time += next.completion_time;
    total_tx_bytes += next.total_tx_bytes;
    return *this;
  }
};

namespace detail {

/// Per-message overhead every baseline message carries on the wire.
inline constexpr std::size_t kHeaderBytes = 64;
/// Host memory rate (B/s) charged for local merges and sketch passes.
inline constexpr double kReduceBandwidthBps = 12e9;

/// Analytic time of one pairwise exchange step whose largest message
/// carries `payload_bytes`: one-way latency plus TX and RX store-and-forward
/// of payload and header.
sim::Time exchange_step_time(std::size_t payload_bytes,
                             const BaselineConfig& cfg);

/// A node on a FlatFabric: its endpoint and when it finished.
class FlatNode : public net::Endpoint {
 public:
  explicit FlatNode(net::Network& net) : net_(net) {}
  FlatNode(const FlatNode&) = delete;
  FlatNode& operator=(const FlatNode&) = delete;
  net::EndpointId self() const { return self_; }
  bool done() const { return done_; }
  sim::Time finish_time() const { return finish_; }

 protected:
  /// Mark the node finished at the current virtual time.
  void finish() {
    done_ = true;
    finish_ = net_.simulator().now();
  }

  net::Network& net_;
  net::EndpointId self_ = -1;

 private:
  friend class FlatFabric;
  bool done_ = false;
  sim::Time finish_ = 0;
};

/// A chunk of opaque bytes: only its size travels.
struct ByteChunk final : net::Message {
  std::size_t bytes = 0;
  bool last_of_flow = false;  // last chunk of one send_chunked call
  std::size_t wire_bytes() const override { return kHeaderBytes + bytes; }
};

/// Send `total` bytes from `src` to `dst` as ByteChunks of at most
/// cfg.chunk_elements * 4 bytes: at least one chunk (empty when `total` is
/// 0), the last one flagged.
void send_chunked(net::Network& net, net::EndpointId src, net::EndpointId dst,
                  std::size_t total, const BaselineConfig& cfg);

/// The fabric every simulated baseline runs on: one simulator and one
/// lossless ideal-switch network whose NICs run at cfg.bandwidth_bps both
/// ways.
class FlatFabric {
 public:
  explicit FlatFabric(const BaselineConfig& cfg);
  FlatFabric(const FlatFabric&) = delete;
  FlatFabric& operator=(const FlatFabric&) = delete;

  net::Network& network() { return network_; }

  /// Attach `node` to `nic` and return its endpoint (also node.self()).
  net::EndpointId attach(FlatNode& node, net::NicId nic);
  /// Attach `node` to a NIC of its own.
  net::EndpointId attach(FlatNode& node);

  /// Run to quiescence. Throws std::logic_error(what + " stalled") if a
  /// node of `nodes` has not finished; returns their latest finish and the
  /// tx bytes of their NICs.
  template <typename Nodes>
  BaselineStats run(const Nodes& nodes, const std::string& what) {
    simulator_.run();
    BaselineStats stats;
    for (const auto& node : nodes) {
      if (!node->done()) throw std::logic_error(what + " stalled");
      stats.completion_time =
          std::max(stats.completion_time, node->finish_time());
      stats.total_tx_bytes +=
          network_.nic_stats(network_.nic_of(node->self())).tx_bytes;
    }
    return stats;
  }

 private:
  double bandwidth_bps_;
  sim::Simulator simulator_;
  net::Network network_;
};

/// Simulate an all-to-all where node w sends `bytes_matrix[w][p]` opaque
/// bytes to peer p, chunked. Building block shared by SparCML phase 1 and
/// Ok-Topk's partition exchange.
BaselineStats all_to_all_bytes(
    const std::vector<std::vector<std::size_t>>& bytes_matrix,
    const BaselineConfig& cfg);

}  // namespace detail
}  // namespace omr::baselines
