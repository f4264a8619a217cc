#include "core/worker.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/faults.h"
#include "core/run_context.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace omr::core {

Worker::Worker(const Config& cfg, net::Network& net, std::uint32_t wid)
    : cfg_(cfg),
      net_(net),
      wid_(wid),
      pool_(cfg.fusion_width()) {}

void Worker::start(tensor::DenseTensor& tensor, const CollectivePlan& plan,
                   const device::DeviceModel& device) {
  tensor_ = &tensor;
  plan_ = &plan;
  device_ = device;
  if (!alive_) {
    // Crashed before entering the collective: remember the call and replay
    // it when the restart event fires.
    start_pending_ = true;
    return;
  }
  if (!cfg_.dense_mode) {
    bitmap_.rebuild(tensor.span(), cfg_.block_size);
  }
  // Sessions reuse workers across collectives: all timing is relative to
  // the virtual time at which this collective starts.
  call_start_ = sim().now();
  start_time_ = call_start_ + (cfg_.charge_bitmap_cost
                                   ? device_.bitmap_cost(tensor.size(),
                                                         cfg_.block_size)
                                   : 0);
  if (cfg_.codec.enabled()) {
    // One-time codec arming cost; dominates at small tensors.
    start_time_ += static_cast<sim::Time>(kCodecSetupNs);
    codec_saved_bytes_ = 0;
    codec_residual_sq_ = 0.0;
    pending_rx_cost_ = 0;
    codec_tail_ = 0;
    // The residual persists across collectives of a Session (that is the
    // error-feedback contract); it is re-zeroed only when the tensor
    // geometry changes.
    if (codec_residual_.size() != tensor.size()) {
      codec_residual_.assign(tensor.size(), 0.0f);
    }
  }
  // Stream state and the next-block table are reset in place: a Session's
  // later collectives reuse their storage.
  states_.assign(plan.layout.streams.size(), StreamState{});
  std::size_t columns = 0;
  for (std::size_t s = 0; s < states_.size(); ++s) {
    states_[s].next_off = columns;
    columns += plan.layout.streams[s].columns;
  }
  next_.assign(columns, tensor::kNoBlock);
  in_flight_slots_ = 0;
  streams_done_ = 0;
  finish_time_ = 0;
  data_bytes_sent_ = 0;
  packets_sent_ = 0;
  acks_sent_ = 0;
  announcements_sent_ = 0;
  retransmissions_ = 0;
  for (std::size_t s = 0; s < states_.size(); ++s) send_initial(s);
  if (states_.empty()) {
    // Degenerate empty tensor: nothing to do.
    finish_time_ = start_time_;
    if (on_done_) on_done_(*this);
  }
}

tensor::BlockIndex Worker::scan_next(std::size_t stream, std::size_t column,
                                     tensor::BlockIndex after) const {
  const StreamInfo& info = plan_->layout.streams[stream];
  const auto blocks = static_cast<tensor::BlockIndex>(info.blocks());
  const auto width = static_cast<tensor::BlockIndex>(plan_->layout.width);
  // `after` is always congruent to `column` modulo the fusion width (it is
  // either column - width at bootstrap or a previous scan result), so the
  // first candidate is one stride past it.
  const tensor::BlockIndex from = after + width;
  if (from >= blocks) return tensor::kNoBlock;
  if (cfg_.dense_mode) return from;
  // One packed-bitmap column scan in global block coordinates: stream-local
  // candidates of `column` are the global indices congruent to
  // block_lo + column modulo the width, bounded by the stream's range.
  const auto lo = static_cast<tensor::BlockIndex>(info.block_lo);
  const std::size_t w = plan_->layout.width;
  const tensor::BlockIndex g = bitmap_.next_nonzero_in_column(
      lo + from, (info.block_lo + column) % w, w,
      static_cast<tensor::BlockIndex>(info.block_hi));
  return g == tensor::kNoBlock ? tensor::kNoBlock : g - lo;
}

void Worker::read_block(std::size_t stream, tensor::BlockIndex block,
                        std::vector<float>& out) const {
  const StreamInfo& info = plan_->layout.streams[stream];
  const std::size_t global =
      info.block_lo + static_cast<std::size_t>(block);
  const std::size_t lo = global * cfg_.block_size;
  const std::size_t hi = std::min(lo + cfg_.block_size, tensor_->size());
  // Pooled buffers arrive already sized; only a fresh vector pays the
  // value-initializing resize. The zero padding is written explicitly for
  // the (at most one) partial block at the tensor end instead of
  // pre-filling the whole block — full blocks are written exactly once.
  if (out.size() != cfg_.block_size) out.resize(cfg_.block_size);
  const auto fill_from =
      std::copy(tensor_->values().begin() + static_cast<std::ptrdiff_t>(lo),
                tensor_->values().begin() + static_cast<std::ptrdiff_t>(hi),
                out.begin());
  std::fill(fill_from, out.end(), 0.0f);
}

void Worker::write_block(std::size_t stream, const ColumnBlock& cb) {
  const StreamInfo& info = plan_->layout.streams[stream];
  const std::size_t global =
      info.block_lo + static_cast<std::size_t>(cb.block);
  const std::size_t lo = global * cfg_.block_size;
  const std::size_t hi = std::min(lo + cfg_.block_size, tensor_->size());
  float* dst = tensor_->values().data() + lo;
  const float* src = cb.data.data();
  const std::size_t n = hi - lo;
#if defined(__SSE2__)
  // Result blocks are written once and never re-read during the run (the
  // protocol advances strictly forward), and the tensor working set is far
  // larger than the LLC — so stream the stores: a regular store would pay
  // a read-for-ownership miss per line and evict hot protocol state. The
  // destination is always 16-byte aligned in practice (block_size-strided
  // offsets into the vector's allocation); the check keeps this safe.
  if (reinterpret_cast<std::uintptr_t>(dst) % 16 == 0) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) _mm_stream_ps(dst + i, _mm_loadu_ps(src + i));
    for (; i < n; ++i) dst[i] = src[i];
    return;
  }
#endif
  std::copy(src, src + n, dst);
}

void Worker::encode_column(std::size_t stream, ColumnBlock& cb) {
  if (!cfg_.codec.enabled()) return;
  const StreamInfo& info = plan_->layout.streams[stream];
  const std::size_t global =
      info.block_lo + static_cast<std::size_t>(cb.block);
  const std::size_t lo = global * cfg_.block_size;
  const std::size_t n = cb.data.size();
  // Fold in the carried residual first (zero on the first collective).
  // Padding elements past the tensor end have no residual slot and stay
  // zero.
  const std::size_t live = lo < codec_residual_.size()
                               ? std::min(n, codec_residual_.size() - lo)
                               : 0;
  for (std::size_t i = 0; i < live; ++i) cb.data[i] += codec_residual_[lo + i];
  // One pass per group: the wire carries `enc`, everyone downstream sees
  // the representatives written over cb.data, and the error becomes the
  // carried residual.
  auto enc = pool_.acquire_sidecar();
  compress::CodecResidual residual{
      live > 0 ? codec_residual_.data() + lo : nullptr, live,
      codec_residual_sq_};
  compress::encode_in_place(cb.data.data(), n, cfg_.codec.codec, *enc,
                            &residual);
  codec_residual_sq_ = residual.sq;
  const std::size_t raw = n * cfg_.value_bytes;
  const std::size_t wire = enc->payload_bytes();
  if (raw > wire) codec_saved_bytes_ += raw - wire;
  cb.enc = std::move(enc);
}

std::shared_ptr<DataPacket> Worker::new_packet(std::uint32_t stream,
                                               std::uint8_t ver,
                                               bool carries_columns) {
  auto pkt = pool_.acquire(carries_columns);
  pkt->stream = stream;
  pkt->ver = ver;
  pkt->epoch = member_epoch_;
  pkt->wid = wid_;
  pkt->header_bytes = cfg_.header_bytes;
  pkt->value_bytes = cfg_.value_bytes;
  return pkt;
}

sim::Time Worker::staging_deadline(const DataPacket& pkt) const {
  if (device_.gdr || pkt.columns.empty()) return 0;
  std::size_t max_byte = 0;
  const StreamInfo& info = plan_->layout.streams[pkt.stream];
  for (const ColumnBlock& cb : pkt.columns) {
    const std::size_t global =
        info.block_lo + static_cast<std::size_t>(cb.block);
    const std::size_t end =
        std::min((global + 1) * cfg_.block_size, tensor_->size()) * 4;
    max_byte = std::max(max_byte, end > 0 ? end - 1 : 0);
  }
  return call_start_ + device_.chunk_ready(max_byte);
}

void Worker::note_in_flight(std::size_t stream, bool value) {
  StreamState& st = states_[stream];
  if (st.in_flight == value) return;
  st.in_flight = value;
  in_flight_slots_ += value ? 1 : static_cast<std::size_t>(-1);
  if (tracer_ != nullptr) {
    tracer_->counter_sample(telemetry::worker_pid(wid_), "in_flight_slots",
                            sim().now(),
                            static_cast<double>(in_flight_slots_));
  }
}

void Worker::send_packet(std::size_t stream, std::shared_ptr<DataPacket> pkt,
                         bool is_bootstrap) {
  sim::Time ready = std::max(
      {sim().now(), start_time_, staging_deadline(*pkt)});
  if (cfg_.codec.enabled()) {
    // Encode compute for this packet plus any result-decode cost carried
    // over from the round that triggered it (one codec engine per worker).
    std::size_t elems = 0;
    for (const ColumnBlock& cb : pkt->columns) elems += cb.data.size();
    ready += cfg_.codec.packet_cost(elems) + pending_rx_cost_;
    pending_rx_cost_ = 0;
  }
  StreamState& st = states_[stream];
  if (faults_ != nullptr) {
    // Straggler injection: every fresh packet pays a seeded per-worker
    // compute delay (retransmissions reuse last_sent and never re-draw,
    // so the RNG sequence depends only on protocol progress).
    const sim::Time delay = faults_->compute_delay(wid_);
    if (delay > 0) {
      ready += delay;
      fault_stall_ns_ += delay;
    }
    st.attempts = 0;
    st.pending_since = ready;
  }
  st.last_sent = pkt;
  for (const ColumnBlock& cb : pkt->columns) {
    data_bytes_sent_ += column_payload_bytes(cb, cfg_.value_bytes);
  }
  if (is_bootstrap) {
    ++announcements_sent_;
  } else if (pkt->columns.empty()) {
    ++acks_sent_;
    if (tracer_ != nullptr) {
      tracer_->ack_tx(telemetry::worker_pid(wid_), sim().now(),
                      pkt->stream);
    }
  } else {
    ++packets_sent_;
  }
  note_in_flight(stream, true);
  const net::EndpointId agg = plan_->owner_ep(stream);
  if (ready <= sim().now()) {
    net_.send(self_, agg, pkt);
    arm_timer(stream);
  } else {
    sim().schedule_at(ready, [this, stream, agg, pkt, epoch = epoch_]() {
      // A crash between scheduling and firing voids the send (the epoch
      // advanced); an aborted run stops pumping so the queue drains.
      if (epoch != epoch_) return;
      if (faults_ != nullptr && faults_->aborted()) return;
      net_.send(self_, agg, pkt);
      arm_timer(stream);
    });
  }
}

void Worker::arm_timer(std::size_t stream) {
  if (!cfg_.loss_recovery) return;
  StreamState& st = states_[stream];
  if (st.timer != 0) sim().cancel(st.timer);
  const sim::Time rto = plan_->timeout.rto;
  const sim::Time timeout =
      faults_ != nullptr ? faults_->retransmit_timeout(wid_, st.attempts, rto)
                         : rto;
  st.timer =
      sim().schedule_after(timeout, [this, stream]() { on_timeout(stream); });
}

void Worker::on_timeout(std::size_t stream) {
  StreamState& st = states_[stream];
  st.timer = 0;
  if (st.done || !st.last_sent) return;
  if (faults_ != nullptr) {
    if (!alive_ || faults_->aborted()) return;
    ++st.attempts;
    if (faults_->give_up(st.attempts, sim().now() - st.pending_since)) {
      faults_->declare_aggregator_dead(
          plan_->owner_ep(stream), sim().now(),
          "worker " + std::to_string(wid_) + " gave up on stream " +
              std::to_string(stream) + " after " +
              std::to_string(st.attempts) + " attempts");
      return;
    }
  }
  ++retransmissions_;
  if (tracer_ != nullptr) {
    tracer_->retransmit_fire(telemetry::worker_pid(wid_), sim().now(),
                             static_cast<std::uint32_t>(stream),
                             st.last_sent->payload_bytes());
  }
  net_.send(self_, plan_->owner_ep(stream), st.last_sent);
  arm_timer(stream);
}

void Worker::send_initial(std::size_t stream) {
  const StreamInfo& info = plan_->layout.streams[stream];
  auto pkt = new_packet(static_cast<std::uint32_t>(stream), 0, false);
  pkt->next.resize(info.columns);
  tensor::BlockIndex* next = my_next(stream);
  // Bootstrap round: announce the first non-zero block of every column
  // with no payload. (Algorithm 1 instead transmits block 0 of the single
  // column unconditionally; with Block Fusion that would ship w dense
  // blocks per stream regardless of sparsity, so we bootstrap with pure
  // metadata — one extra round trip, zero data.)
  const auto width = static_cast<tensor::BlockIndex>(plan_->layout.width);
  for (std::size_t c = 0; c < info.columns; ++c) {
    // scan_next looks strictly past its argument; start one stride before
    // row 0 so the row-0 block of the column is itself a candidate.
    next[c] = scan_next(stream, c, static_cast<tensor::BlockIndex>(c) - width);
    pkt->next[c] = next[c];
  }
  send_packet(stream, std::move(pkt), /*is_bootstrap=*/true);
}

void Worker::on_message(net::EndpointId /*from*/, const net::MessagePtr& msg) {
  if (faults_ != nullptr && (!alive_ || faults_->aborted())) return;
  const auto* result = net::message_cast<ResultPacket>(msg.get());
  if (result == nullptr) {
    const auto* resync = net::message_cast<ResyncResponse>(msg.get());
    if (resync == nullptr) {
      throw std::logic_error("worker received non-result message");
    }
    handle_resync(*resync);
    return;
  }
  if (result->epoch != member_epoch_) {
    // Straggler of a previous membership epoch (its stream id may not even
    // exist in the current step's layout) — drop before any state lookup.
    ++stale_results_;
    return;
  }
  handle_result(*result);
}

void Worker::handle_result(const ResultPacket& r) {
  StreamState& st = states_[r.stream];
  if (st.done) return;  // duplicate final result (Algorithm 2 retransmission)
  if (st.resyncing) {
    // A pre-crash result raced our ResyncRequest. Per-pair FIFO delivery
    // guarantees the ResyncResponse carries protocol state at least as new
    // as this packet — drop it and let the response rebuild everything.
    return;
  }
  if (cfg_.loss_recovery && r.ver != st.expect_ver) {
    // Stale duplicate of an already-processed result (our spurious timeout
    // triggered an aggregator resend). Responding to it with our *current*
    // next-block state would let a zero-payload ack stand in for a lost
    // data packet and silently drop our contribution — ignore instead; the
    // outstanding-packet timer still covers any real loss.
    return;
  }
  st.expect_ver ^= 1;
  if (st.timer != 0) {
    sim().cancel(st.timer);
    st.timer = 0;
  }
  st.attempts = 0;
  note_in_flight(r.stream, false);
  if (tracer_ != nullptr) {
    tracer_->round_advance(telemetry::worker_pid(wid_), sim().now(), r.stream,
                           r.columns.size());
  }
  // The acknowledged packet is dead: recycle it for the response we are
  // about to assemble.
  pool_.recycle(st.last_sent);
  sim::Time rx_cost = 0;
  if (cfg_.codec.enabled()) {
    std::size_t elems = 0;
    for (const ColumnBlock& cb : r.columns) elems += cb.data.size();
    rx_cost = cfg_.codec.packet_cost(elems);
  }
  for (const ColumnBlock& cb : r.columns) {
    write_block(r.stream, cb);
  }
  const bool all_finished = std::all_of(
      r.request.begin(), r.request.end(),
      [](tensor::BlockIndex b) { return b == tensor::kNoBlock; });
  if (all_finished) {
    // The decode of the stream's final result lands past the protocol end.
    codec_tail_ = std::max(codec_tail_, rx_cost);
    note_stream_done(r.stream);
    return;
  }
  pending_rx_cost_ += rx_cost;
  tensor::BlockIndex* next = my_next(r.stream);
  const std::size_t columns = r.request.size();
  assert(columns == plan_->layout.streams[r.stream].columns);
  const auto owned = [&](std::size_t c) {
    return r.request[c] != tensor::kNoBlock && r.request[c] == next[c];
  };
  bool owns_any = false;
  for (std::size_t c = 0; c < columns && !owns_any; ++c) owns_any = owned(c);
  // Algorithm 1: only owners respond. Algorithm 2: everyone responds, a
  // payload-less ack when no requested block is owned.
  if (!owns_any && !cfg_.loss_recovery) return;
  auto pkt = new_packet(r.stream, static_cast<std::uint8_t>((r.ver + 1) & 1),
                        owns_any);
  for (std::size_t c = 0; c < columns; ++c) {
    if (owned(c)) {
      ColumnBlock cb;
      cb.column = static_cast<std::uint32_t>(c);
      cb.block = next[c];
      cb.data = pool_.acquire_block();
      read_block(r.stream, cb.block, cb.data);
      encode_column(r.stream, cb);
      pkt->columns.push_back(std::move(cb));
      next[c] = scan_next(r.stream, c, next[c]);
    }
  }
  pkt->next.assign(next, next + columns);
  send_packet(r.stream, std::move(pkt));
}

void Worker::crash() {
  if (!alive_ || done()) return;
  alive_ = false;
  ++crashes_;
  ++epoch_;  // void every deferred send scheduled before the crash
  if (tracer_ != nullptr) {
    tracer_->worker_crash(telemetry::worker_pid(wid_), sim().now());
  }
  for (std::size_t s = 0; s < states_.size(); ++s) {
    StreamState& st = states_[s];
    if (st.timer != 0) {
      sim().cancel(st.timer);
      st.timer = 0;
    }
    note_in_flight(s, false);
    st.last_sent.reset();  // may still be shared with the network: no pool
    st.resyncing = false;
    st.attempts = 0;
  }
}

void Worker::restart() {
  if (alive_) return;
  alive_ = true;
  if (tracer_ != nullptr) {
    tracer_->worker_restart(telemetry::worker_pid(wid_), sim().now());
  }
  if (start_pending_) {
    // The collective began while we were down: enter it from scratch.
    start_pending_ = false;
    start(*tensor_, *plan_, device_);
    return;
  }
  if (tensor_ == nullptr) return;  // crashed and restarted before start()
  for (std::size_t s = 0; s < states_.size(); ++s) {
    if (!states_[s].done) send_resync(s);
  }
}

void Worker::send_resync(std::size_t stream) {
  StreamState& st = states_[stream];
  st.resyncing = true;
  auto req = std::make_shared<ResyncRequest>();
  req->stream = static_cast<std::uint32_t>(stream);
  req->wid = wid_;
  req->header_bytes = cfg_.header_bytes;
  st.last_sent = req;  // the retransmission timer re-sends the request
  st.attempts = 0;
  st.pending_since = sim().now();
  ++resyncs_sent_;
  if (tracer_ != nullptr) {
    tracer_->resync(telemetry::worker_pid(wid_), sim().now(),
                    static_cast<std::uint32_t>(stream));
  }
  note_in_flight(stream, true);
  net_.send(self_, plan_->owner_ep(stream), req);
  arm_timer(stream);
}

void Worker::handle_resync(const ResyncResponse& res) {
  StreamState& st = states_[res.stream];
  if (!st.resyncing || st.done) return;  // stale duplicate
  st.resyncing = false;
  if (st.timer != 0) {
    sim().cancel(st.timer);
    st.timer = 0;
  }
  note_in_flight(res.stream, false);
  st.last_sent.reset();
  st.attempts = 0;
  if (res.result == nullptr) {
    // No round of this stream has completed yet: our pre-crash position was
    // the bootstrap announcement — redo it.
    send_initial(res.stream);
    return;
  }
  // Rebuild `my_next` from the result's request vector. Block consumption
  // per column is strictly increasing and no owned block is ever skipped,
  // so "first owned non-zero block >= request[c]" is exactly the position
  // we held when the aggregator emitted this result; blocks at or past it
  // still hold original gradient data (their round has not completed).
  const ResultPacket& r = *res.result;
  const auto width = static_cast<tensor::BlockIndex>(plan_->layout.width);
  tensor::BlockIndex* next = my_next(res.stream);
  assert(r.request.size() == plan_->layout.streams[res.stream].columns);
  for (std::size_t c = 0; c < r.request.size(); ++c) {
    next[c] = r.request[c] == tensor::kNoBlock
                  ? tensor::kNoBlock
                  : scan_next(res.stream, c, r.request[c] - width);
  }
  st.expect_ver = r.ver;
  // Replay the result: (re)writes its aggregated blocks — idempotent — and
  // contributes whatever we own of the request vector. The aggregator's
  // per-worker seen[] dedups contributions it already counted.
  handle_result(r);
}

void Worker::note_stream_done(std::size_t stream) {
  StreamState& st = states_[stream];
  st.done = true;
  pool_.recycle(st.last_sent);
  ++streams_done_;
  if (done()) {
    // The protocol is complete; a non-GDR worker must additionally have
    // finished staging the whole tensor through host memory (Appendix B).
    const sim::Time staging =
        call_start_ + device_.full_copy_cost(tensor_->size() * 4);
    // codec_tail_: the last result still had to be decoded (0 when the
    // codec is disabled, keeping this byte-identical to the seed).
    finish_time_ = std::max(sim().now() + codec_tail_, staging);
    if (on_done_) on_done_(*this);
  }
}

}  // namespace omr::core
