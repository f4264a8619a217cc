#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.h"
#include "core/messages.h"
#include "core/stream_layout.h"
#include "device/device_model.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "telemetry/telemetry.h"
#include "tensor/blocks.h"
#include "tensor/dense.h"

namespace omr::core {

class FaultController;
struct CollectivePlan;

/// OmniReduce worker: runs Algorithm 1 (reliable fabric) or Algorithm 2
/// (lossy fabric: ack packets, retransmission timers, alternating slot
/// versions) for every stream of the layout, with Block Fusion. The input
/// tensor is reduced in place: aggregated blocks overwrite local data as
/// results arrive, exactly as the paper's pseudocode does.
///
/// Pooled state (a Session's steady-state collective allocates none of it):
/// - `pool_` (a PacketPool): DataPackets with their `next` vectors, column
///   rows, block buffers and codec sidecars. A packet is retired when its
///   result arrives (handle_result) or its stream finishes
///   (note_stream_done); under Algorithm 1 a worker that owns no requested
///   block takes none. new_packet rewrites every header field, `next` is
///   overwritten whole, and encode_in_place rewrites a reused sidecar.
/// - `states_` and `next_`: per-stream protocol state and the flat
///   next-block table (one allocation per worker, not per stream). start()
///   resets both in place, keeping their capacity.
/// - `bitmap_`: rebuilt in place by start().
class Worker final : public net::Endpoint {
 public:
  Worker(const Config& cfg, net::Network& net, std::uint32_t wid);

  /// Wire the worker: its own endpoint id (wire_protocol calls this).
  void bind(net::EndpointId self) { self_ = self; }

  /// Opt-in instrumentation (nullptr = disabled, the default: every hook
  /// site is one pointer compare). Events land on lane worker_pid(wid).
  void set_tracer(telemetry::Tracer* tracer) { tracer_ = tracer; }

  /// Attach the fault-injection controller (nullptr = disabled, the
  /// default: the unfaulted code path runs byte-identically). Enables
  /// straggler compute delays, adaptive retransmission backoff, give-up
  /// escalation and crash/restart with resync.
  void set_faults(FaultController* faults) { faults_ = faults; }

  /// Completion hook, fired (in virtual time) the moment done() flips true
  /// — once per start(). The multi-tenant Fabric's worker agents use it to
  /// report per-step completion to their job controller; null (the
  /// default) costs nothing and keeps single-job runs byte-identical.
  void set_on_done(std::function<void(Worker&)> hook) {
    on_done_ = std::move(hook);
  }

  /// Membership epoch of the next collective (multi-step elastic runs):
  /// outgoing packets are stamped with it and results of a different epoch
  /// are dropped (counted by stale_results()) instead of misread as the
  /// current step's traffic. Call before start(); the default 0 matches
  /// every single-collective run byte-identically.
  void set_epoch(std::uint8_t epoch) { member_epoch_ = epoch; }

  /// Fault injection: kill the worker now. All protocol state and timers
  /// for unfinished streams are discarded; in-flight messages addressed to
  /// the worker are dropped on arrival. The tensor (device memory) and
  /// already-completed streams survive.
  void crash();
  /// Fault injection: bring a crashed worker back. Every unfinished stream
  /// re-enters the protocol through a ResyncRequest handshake that rebuilds
  /// its pre-crash position from the aggregator's last emitted result.
  void restart();
  bool alive() const { return alive_; }

  /// Begin the collective: computes the non-zero-block bitmap (charging the
  /// device-model cost), then sends the initial packet of every stream.
  /// `tensor` must outlive the run and is mutated into the reduced result.
  /// `plan` supplies the layout, each stream's owner and Algorithm 2's
  /// timeout (under fault injection, the base the RetryPolicy backoff
  /// multiplies); it too must outlive the run.
  void start(tensor::DenseTensor& tensor, const CollectivePlan& plan,
             const device::DeviceModel& device);

  void on_message(net::EndpointId from, const net::MessagePtr& msg) override;

  bool done() const { return streams_done_ == states_.size(); }
  /// Virtual time at which this worker finished (protocol completion plus
  /// any residual GPU->host staging; valid once done()).
  sim::Time finish_time() const { return finish_time_; }

  /// Payload bytes of block data this worker transmitted (no headers).
  std::uint64_t data_bytes_sent() const { return data_bytes_sent_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  /// Payload-less bootstrap announcements (one per stream).
  std::uint64_t announcements_sent() const { return announcements_sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// Fault-layer counters (cumulative over the worker's lifetime).
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t resyncs_sent() const { return resyncs_sent_; }
  /// Results dropped for carrying a stale membership epoch (cumulative).
  std::uint64_t stale_results() const { return stale_results_; }
  /// Total injected straggler compute delay (ns of virtual time).
  sim::Time fault_stall() const { return fault_stall_ns_; }

  /// Wire bytes saved by the codec on this worker's data leg (raw fp32
  /// payload bytes minus encoded payload bytes; 0 with codec disabled).
  std::uint64_t codec_saved_bytes() const { return codec_saved_bytes_; }
  /// Sum of squared quantization errors over every block this worker
  /// encoded (pre-error-feedback); the per-collective residual l2^2.
  double codec_residual_sq() const { return codec_residual_sq_; }

 private:
  struct StreamState {
    std::size_t next_off = 0;  // the stream's my_next row in next_
    std::uint8_t expect_ver = 0;  // version of the next fresh result
    bool done = false;
    bool in_flight = false;  // a packet of ours awaits a result (telemetry)
    net::MessagePtr last_sent;  // retransmission buffer (Algorithm 2)
    sim::EventId timer = 0;
    bool resyncing = false;  // a ResyncRequest awaits its response
    std::uint32_t attempts = 0;       // timeouts since the last fresh send
    sim::Time pending_since = 0;      // when the outstanding packet left
  };

  /// The stream's next non-zero block per column (stream-local indices):
  /// its row of next_, one entry per active column.
  tensor::BlockIndex* my_next(std::size_t stream) {
    return next_.data() + states_[stream].next_off;
  }
  void handle_result(const ResultPacket& r);
  /// Next non-zero stream-local block in `column`, strictly after `after`.
  tensor::BlockIndex scan_next(std::size_t stream, std::size_t column,
                               tensor::BlockIndex after) const;
  /// Copy the (zero-padded) stream-local block into `out`.
  void read_block(std::size_t stream, tensor::BlockIndex block,
                  std::vector<float>& out) const;
  void write_block(std::size_t stream, const ColumnBlock& cb);
  /// Wire-codec hook: fold in the error-feedback residual, encode the
  /// block, replace its values with the decoded representatives and attach
  /// the encoded sidecar. No-op with codec disabled.
  void encode_column(std::size_t stream, ColumnBlock& cb);
  /// A pooled packet of `stream` with the header fields set and no columns
  /// (room for a full row of them when `carries_columns`).
  std::shared_ptr<DataPacket> new_packet(std::uint32_t stream,
                                         std::uint8_t ver,
                                         bool carries_columns);
  /// Transmit `pkt` for `stream` no earlier than the staging deadline of
  /// its highest block; arms the retransmission timer under Algorithm 2.
  void send_packet(std::size_t stream, std::shared_ptr<DataPacket> pkt,
                   bool is_bootstrap = false);
  void arm_timer(std::size_t stream);
  void on_timeout(std::size_t stream);
  void send_initial(std::size_t stream);
  /// Post-restart: ask the stream's aggregator for its last emitted result.
  void send_resync(std::size_t stream);
  void handle_resync(const ResyncResponse& res);
  void note_stream_done(std::size_t stream);
  /// Staging deadline: earliest time the data of `pkt` is host-resident.
  sim::Time staging_deadline(const DataPacket& pkt) const;

  /// Mark `stream` as having/lacking an outstanding packet and sample the
  /// occupancy series. No-op without a tracer.
  void note_in_flight(std::size_t stream, bool value);

  /// The simulator this worker schedules on: the network's.
  sim::Simulator& sim() const { return net_.simulator(); }

  Config cfg_;
  net::Network& net_;
  std::uint32_t wid_;
  net::EndpointId self_ = -1;
  telemetry::Tracer* tracer_ = nullptr;
  FaultController* faults_ = nullptr;
  std::function<void(Worker&)> on_done_;
  std::size_t in_flight_slots_ = 0;
  bool alive_ = true;
  bool start_pending_ = false;  // crashed before start(); replay on restart
  std::uint64_t epoch_ = 0;     // bumped per crash; voids deferred sends
  std::uint64_t crashes_ = 0;
  std::uint64_t resyncs_sent_ = 0;
  std::uint8_t member_epoch_ = 0;  // membership epoch stamped on packets
  std::uint64_t stale_results_ = 0;
  sim::Time fault_stall_ns_ = 0;

  tensor::DenseTensor* tensor_ = nullptr;
  const CollectivePlan* plan_ = nullptr;
  device::DeviceModel device_;
  tensor::BlockBitmap bitmap_;
  sim::Time call_start_ = 0;  // virtual time when start() was called
  sim::Time start_time_ = 0;  // protocol start (after bitmap computation)

  std::vector<StreamState> states_;
  std::vector<tensor::BlockIndex> next_;  // every stream's my_next row
  PacketPool<DataPacket> pool_;
  std::size_t streams_done_ = 0;
  sim::Time finish_time_ = 0;

  std::uint64_t data_bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t announcements_sent_ = 0;
  std::uint64_t retransmissions_ = 0;

  // Wire-codec state (untouched when cfg_.codec is disabled).
  std::vector<float> codec_residual_;  // error-feedback carry, tensor-sized
  sim::Time pending_rx_cost_ = 0;  // result-decode cost charged to next tx
  sim::Time codec_tail_ = 0;       // final-result decode past protocol end
  std::uint64_t codec_saved_bytes_ = 0;
  double codec_residual_sq_ = 0.0;
};

}  // namespace omr::core
