#pragma once

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/messages.h"
#include "core/reduce_kernels.h"
#include "core/stream_layout.h"
#include "net/network.h"
#include "telemetry/telemetry.h"

namespace omr::core {

class FaultController;

/// OmniReduce aggregator node. Owns a shard of the stream slots; runs the
/// Algorithm 1 look-ahead aggregation on reliable fabrics and the
/// Algorithm 2 versioned-slot variant (count-based rounds, duplicate
/// detection, result retransmission) on lossy ones.
///
/// Pooled state (a Session's steady-state collective allocates none of it):
/// - `slots_`: a dense slot table, one SlotState per owned stream, indexed
///   through `slot_of_stream_`. begin_collective() unmaps every stream but
///   keeps the slots; add_stream() re-initialises the next free slot in
///   place (reset_slot: accumulator columns, next-block table, seen flags,
///   quantized accumulators), keeping every vector's capacity.
/// - `pool_` (a PacketPool): ResultPackets with their request vectors,
///   column rows, column buffers and codec sidecars. A result is retired
///   when the next round of its slot (Algorithm 1) or version (Algorithm 2)
///   completes, or when reset_slot reuses its slot. emit_result moves each
///   emitted slot column into the result and refills the slot from the
///   pool (reset to the operator's identity there).
class Aggregator final : public net::Endpoint {
 public:
  Aggregator(const Config& cfg, net::Network& net, std::size_t n_workers);

  /// Wire the aggregator: its endpoint and the worker endpoints (indexed
  /// by worker id) used for result multicast.
  void bind(net::EndpointId self, std::vector<net::EndpointId> workers);

  /// Opt-in instrumentation (nullptr = disabled, the default). `pid` is
  /// the trace lane, typically telemetry::aggregator_pid(node_index).
  void set_tracer(telemetry::Tracer* tracer, std::int32_t pid) {
    tracer_ = tracer;
    pid_ = pid;
  }

  /// Attach the fault-injection controller (nullptr = disabled, the
  /// default). `node_index` selects this node's stall windows and names it
  /// in failure verdicts. Enables stall deferral, the per-round worker
  /// liveness check and the ResyncRequest handshake.
  void set_faults(FaultController* faults, std::size_t node_index) {
    faults_ = faults;
    node_index_ = node_index;
  }

  /// Elastic membership (multi-tenant Fabric): declare which workers
  /// participate in the collectives that follow. `active[w]` is truthy for
  /// a participating worker; an empty vector (the default) means all of
  /// them — the legacy path, byte-identical to pre-elastic runs. While a
  /// non-empty set is installed the aggregator also becomes elastic-aware:
  /// rounds complete over the active count, results go to active workers
  /// only, ResyncRequests are served without a FaultController (join
  /// catch-up) and packets for unknown streams are dropped and counted
  /// instead of thrown (late duplicates from a previous membership epoch).
  /// Call before add_stream of the affected collective.
  void set_active_workers(std::vector<std::uint8_t> active);

  /// Membership epoch of the next collective (see DataPacket::epoch):
  /// results are stamped with it and data packets of a different epoch are
  /// dropped into stale_drops(). Call alongside begin_collective(); the
  /// default 0 matches every single-collective run byte-identically.
  void set_epoch(std::uint8_t epoch) { epoch_ = epoch; }

  /// Register ownership of a stream's slot. Must be called for every
  /// stream routed to this node before traffic arrives.
  void add_stream(std::uint32_t stream, const StreamInfo& info);

  /// Unregister every stream and reset per-collective counters: called by
  /// a Session between collectives (the Fig. 2f "wait for new tensor"
  /// transition). The slots themselves are kept for add_stream to reuse.
  void begin_collective();

  void on_message(net::EndpointId from, const net::MessagePtr& msg) override;

  /// All owned streams have completed (final results multicast).
  bool done() const { return streams_done_ == n_slots_; }
  std::uint64_t results_sent() const { return results_sent_; }
  std::uint64_t duplicate_resends() const { return duplicate_resends_; }
  std::uint64_t rounds_completed() const { return rounds_completed_; }
  std::uint64_t resyncs_served() const { return resyncs_served_; }
  /// Packets dropped because their stream is no longer registered (elastic
  /// mode only: stragglers of a previous membership epoch).
  std::uint64_t stale_drops() const { return stale_drops_; }
  /// Wire bytes saved by the codec on the result leg (0 when disabled).
  std::uint64_t codec_saved_bytes() const { return codec_saved_bytes_; }
  /// Emitted columns whose sum was reconstructed exactly in the quantized
  /// domain (every contribution shared codec + scales).
  std::uint64_t codec_exact_folds() const { return codec_exact_folds_; }
  /// Emitted columns that fell back to dequant-fold-requant.
  std::uint64_t codec_requant_folds() const { return codec_requant_folds_; }

 private:
  /// Accumulator storage: one block_size buffer per column. Kept as
  /// separate vectors (not one contiguous slab) so emit_result can move a
  /// column's buffer into the outgoing ResultPacket and replace it from
  /// the pool instead of copying block_size floats per column per round.
  using SlotData = std::vector<std::vector<float>>;

  struct SlotVersion {  // Algorithm 2 per-version state
    SlotData data;
    std::vector<std::uint8_t> seen;            // per worker
    std::size_t count = 0;                     // packets this round
    std::vector<tensor::BlockIndex> min_next;  // per column
    /// Quantized-domain sum per column (codec_fold_ only; exact when every
    /// contribution shares codec + scales, else falls back to the float
    /// slot which holds the dequantized fold).
    std::vector<compress::QuantAccumulator> qacc;
    net::MessagePtr last_result;               // retransmission buffer
    /// Deterministic mode: contributions buffered until round completion.
    std::vector<std::shared_ptr<const DataPacket>> pending;
    /// Completed rounds of this version (fault layer): invalidates pending
    /// liveness checks armed during an earlier round.
    std::uint64_t serial = 0;
  };
  struct SlotState {
    StreamInfo info;
    std::vector<tensor::BlockIndex> cur;  // per column; kNoBlock = finished
    bool done = false;
    // Algorithm 1 state
    SlotData slot;  // per-column accumulator
    std::vector<compress::QuantAccumulator> qacc;  // codec_fold_ only
    /// Announced next block, [column * n_workers + worker].
    std::vector<tensor::BlockIndex> next_tbl;
    std::vector<std::shared_ptr<const DataPacket>> pending;  // deterministic
    net::MessagePtr last_result;  // previous round's result, for recycling
    // Algorithm 2 state
    SlotVersion ver[2];
    /// Fault layer: most recent result of either version, retained for the
    /// crash-recovery ResyncRequest handshake (null until a round emits).
    std::shared_ptr<const ResultPacket> last_emitted;
  };

  /// The slot registered for `stream` in this collective, or nullptr.
  SlotState* find_slot(std::uint32_t stream);
  /// Re-initialise `st` for `info` as a fresh slot would be, reusing its
  /// storage; retired results go back to the pool.
  void reset_slot(SlotState& st, const StreamInfo& info);
  /// Resize `slot` to `columns` identity-filled columns through the pool.
  void reset_columns(SlotData& slot, std::size_t columns);
  void handle_alg1(SlotState& st, std::uint32_t stream,
                   const std::shared_ptr<const DataPacket>& p);
  void handle_alg2(SlotState& st, std::uint32_t stream,
                   const std::shared_ptr<const DataPacket>& p);
  /// Crash recovery / join catch-up: answer `from` with the stream's last
  /// emitted result.
  void handle_resync(net::EndpointId from, const ResyncRequest& rq);
  /// True while an explicit (possibly partial) membership set is installed.
  bool elastic() const { return !active_.empty(); }
  /// Result fan-out: the active workers' endpoints in elastic mode, every
  /// worker otherwise.
  const std::vector<net::EndpointId>& result_targets() const {
    return active_.empty() ? workers_ : active_eps_;
  }
  /// Liveness deadline for a round of (stream, version): if the same round
  /// (by serial) is still open, the lowest-id missing worker is declared
  /// dead through the FaultController.
  void liveness_check(std::uint32_t stream, std::uint8_t v,
                      std::uint64_t serial);
  /// Fold p's block payloads into `slot` with the configured operator,
  /// either immediately or (deterministic mode) via `pending`.
  void stage(SlotState& st, SlotData& slot,
             std::vector<std::shared_ptr<const DataPacket>>& pending,
             std::vector<compress::QuantAccumulator>* qacc,
             const std::shared_ptr<const DataPacket>& p) const;
  /// Apply one packet's payload to `slot` (op + optional fixed point).
  void fold(SlotData& slot, const DataPacket& p) const;
  /// Fold one packet's encoded sidecars into the per-column quantized
  /// accumulators (exact integer-code sums; see QuantAccumulator).
  void fold_codec(std::vector<compress::QuantAccumulator>& qacc,
                  const DataPacket& p) const;
  /// Deterministic mode: fold `pending` in worker-id order, then clear it.
  void drain_pending(SlotData& slot,
                     std::vector<std::shared_ptr<const DataPacket>>& pending)
      const;
  /// Identity element of the configured operator (slot reset value).
  float identity() const;
  /// Build + multicast the round's result; advances cur and detects stream
  /// completion. `requests` are per-column global minima; `slot` holds the
  /// aggregated data for the round. Returns the packet for retransmission.
  net::MessagePtr emit_result(SlotState& st, std::uint32_t stream,
                              std::uint8_t ver,
                              const std::vector<tensor::BlockIndex>& requests,
                              SlotData& slot,
                              std::vector<compress::QuantAccumulator>* qacc);

  Config cfg_;
  net::Network& net_;
  std::size_t n_workers_;
  kernels::ReduceKernel kernel_;  // (op, fixed-point) dispatch, hoisted
  /// Quantized-domain folding is attempted: codec on, op == sum, and not
  /// fixed point (integer codes only sum exactly under kSum).
  bool codec_fold_ = false;
  PacketPool<ResultPacket> pool_;
  std::vector<tensor::BlockIndex> requests_scratch_;  // per-packet work table
  telemetry::Tracer* tracer_ = nullptr;
  std::int32_t pid_ = 0;
  FaultController* faults_ = nullptr;
  std::size_t node_index_ = 0;
  net::EndpointId self_ = -1;
  std::vector<net::EndpointId> workers_;
  /// Elastic membership: per-worker participation flags (empty = all
  /// active), the active count rounds complete over, and the cached active
  /// endpoints results multicast to.
  std::vector<std::uint8_t> active_;
  std::size_t active_count_;
  std::vector<net::EndpointId> active_eps_;
  std::uint8_t epoch_ = 0;  // membership epoch stamped on outgoing results
  std::uint64_t stale_drops_ = 0;
  std::vector<SlotState> slots_;  // [0, n_slots_) serve this collective
  std::size_t n_slots_ = 0;
  std::vector<std::uint32_t> slot_of_stream_;  // kNoSlot: not owned here
  std::size_t streams_done_ = 0;
  std::uint64_t results_sent_ = 0;
  std::uint64_t duplicate_resends_ = 0;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t resyncs_served_ = 0;
  std::uint64_t codec_saved_bytes_ = 0;
  std::uint64_t codec_exact_folds_ = 0;
  std::uint64_t codec_requant_folds_ = 0;
};

}  // namespace omr::core
