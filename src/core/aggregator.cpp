#include "core/aggregator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/faults.h"

namespace omr::core {

namespace {
// Sentinels for the bootstrap round: cur starts at kPreStart (no block is
// being aggregated yet); next_tbl entries start at kMinusInfinity so the
// round cannot complete before every worker has announced once
// (Algorithm 1 line 18).
constexpr tensor::BlockIndex kPreStart = -1;
constexpr tensor::BlockIndex kMinusInfinity = -2;
constexpr std::uint32_t kNoSlot = UINT32_MAX;
}  // namespace

Aggregator::Aggregator(const Config& cfg, net::Network& net,
                       std::size_t n_workers)
    : cfg_(cfg),
      net_(net),
      n_workers_(n_workers),
      kernel_(kernels::select(cfg.op, cfg.fixed_point)),
      codec_fold_(cfg.codec.enabled() && cfg.op == ReduceOp::kSum &&
                  !cfg.fixed_point),
      pool_(cfg.fusion_width()),
      active_count_(n_workers) {}

void Aggregator::bind(net::EndpointId self,
                      std::vector<net::EndpointId> workers) {
  self_ = self;
  workers_ = std::move(workers);
  if (!active_.empty()) set_active_workers(active_);
}

void Aggregator::set_active_workers(std::vector<std::uint8_t> active) {
  if (!active.empty() && active.size() != n_workers_) {
    throw std::invalid_argument("active-set size != worker count");
  }
  active_ = std::move(active);
  active_eps_.clear();
  active_count_ = n_workers_;
  if (active_.empty()) return;
  active_count_ = 0;
  for (std::size_t w = 0; w < n_workers_; ++w) {
    if (!active_[w]) continue;
    ++active_count_;
    if (w < workers_.size()) active_eps_.push_back(workers_[w]);
  }
  if (active_count_ == 0) {
    throw std::invalid_argument("active set must name at least one worker");
  }
}

float Aggregator::identity() const {
  switch (cfg_.op) {
    case ReduceOp::kSum: return 0.0f;
    case ReduceOp::kMin: return std::numeric_limits<float>::infinity();
    case ReduceOp::kMax: return -std::numeric_limits<float>::infinity();
  }
  return 0.0f;
}

void Aggregator::reset_columns(SlotData& slot, std::size_t columns) {
  while (slot.size() > columns) {
    pool_.release_block(std::move(slot.back()));
    slot.pop_back();
  }
  while (slot.size() < columns) slot.push_back(pool_.acquire_block());
  for (auto& col : slot) col.assign(cfg_.block_size, identity());
}

void Aggregator::reset_slot(SlotState& st, const StreamInfo& info) {
  const std::size_t qcols = codec_fold_ ? info.columns : 0;
  st.info = info;
  st.cur.assign(info.columns, kPreStart);
  st.done = false;
  st.last_emitted.reset();  // shares a result recycled below
  if (cfg_.loss_recovery) {
    for (SlotVersion& v : st.ver) {
      reset_columns(v.data, info.columns);
      v.seen.assign(n_workers_, 0);
      v.count = 0;
      v.min_next.assign(info.columns, tensor::kNoBlock);
      v.qacc.resize(qcols);
      for (auto& a : v.qacc) a.reset();
      pool_.recycle(v.last_result);
      v.pending.clear();
      v.serial = 0;
    }
    return;
  }
  reset_columns(st.slot, info.columns);
  st.qacc.resize(qcols);
  for (auto& a : st.qacc) a.reset();
  st.next_tbl.assign(info.columns * n_workers_, kMinusInfinity);
  if (!active_.empty()) {
    // Elastic mode: an inactive worker never announces. Its entry starts
    // at kNoBlock — the max sentinel, transparent under the per-column
    // min — so rounds complete over the active members alone.
    for (std::size_t c = 0; c < info.columns; ++c) {
      for (std::size_t w = 0; w < n_workers_; ++w) {
        if (!active_[w]) st.next_tbl[c * n_workers_ + w] = tensor::kNoBlock;
      }
    }
  }
  st.pending.clear();
  pool_.recycle(st.last_result);
}

void Aggregator::add_stream(std::uint32_t stream, const StreamInfo& info) {
  if (find_slot(stream) == nullptr) {
    if (stream >= slot_of_stream_.size()) {
      slot_of_stream_.resize(stream + std::size_t{1}, kNoSlot);
    }
    if (n_slots_ == slots_.size()) slots_.emplace_back();
    slot_of_stream_[stream] = static_cast<std::uint32_t>(n_slots_);
    reset_slot(slots_[n_slots_++], info);
  }
  if (tracer_ != nullptr) {
    tracer_->slot_open(pid_, net_.simulator().now(), stream);
  }
}

Aggregator::SlotState* Aggregator::find_slot(std::uint32_t stream) {
  if (stream >= slot_of_stream_.size()) return nullptr;
  const std::uint32_t i = slot_of_stream_[stream];
  return i == kNoSlot ? nullptr : &slots_[i];
}

void Aggregator::begin_collective() {
  std::fill(slot_of_stream_.begin(), slot_of_stream_.end(), kNoSlot);
  n_slots_ = 0;
  streams_done_ = 0;
  results_sent_ = 0;
  duplicate_resends_ = 0;
  rounds_completed_ = 0;
  resyncs_served_ = 0;
  codec_saved_bytes_ = 0;
  codec_exact_folds_ = 0;
  codec_requant_folds_ = 0;
}

void Aggregator::on_message(net::EndpointId from, const net::MessagePtr& msg) {
  if (faults_ != nullptr) {
    if (faults_->aborted()) return;
    const sim::Time now = net_.simulator().now();
    const sim::Time until = faults_->stalled_until(node_index_, now);
    if (until > now) {
      // Slot stall: defer processing until the window lifts. Deferred
      // messages re-enter in arrival order (FIFO at equal timestamps), and
      // stop-and-wait per (worker, stream) makes any cross-source reorder
      // harmless.
      net_.simulator().schedule_at(until, [this, from, msg]() {
        on_message(from, msg);
      });
      return;
    }
    if (const auto* rq = net::message_cast<ResyncRequest>(msg.get())) {
      handle_resync(from, *rq);
      return;
    }
  } else if (elastic()) {
    // Elastic membership without fault injection: joining workers catch up
    // through the same ResyncRequest handshake the crash path uses.
    if (const auto* rq = net::message_cast<ResyncRequest>(msg.get())) {
      handle_resync(from, *rq);
      return;
    }
  }
  const auto* raw = net::message_cast<DataPacket>(msg.get());
  if (raw == nullptr) {
    throw std::logic_error("aggregator received non-data message");
  }
  const std::shared_ptr<const DataPacket> p(msg, raw);
  if (p->epoch != epoch_) {
    // Cross-epoch straggler whose stream id may be valid again in the
    // current step (steps reuse ids 0..n-1): without the tag a late
    // Algorithm 2 ack could stand in for a fresh contribution. Count, drop.
    ++stale_drops_;
    return;
  }
  SlotState* st = find_slot(p->stream);
  if (st == nullptr) {
    if (elastic()) {
      // A straggler of a previous membership epoch (e.g. an Algorithm 2
      // retransmission that raced the epoch's begin_collective). Harmless:
      // its round completed or its sender left; count and drop.
      ++stale_drops_;
      return;
    }
    throw std::logic_error("packet for unknown stream");
  }
  if (cfg_.loss_recovery) {
    handle_alg2(*st, p->stream, p);
  } else {
    handle_alg1(*st, p->stream, p);
  }
}

void Aggregator::fold(SlotData& slot, const DataPacket& p) const {
  // The (op, fixed-point) dispatch happened once at construction; the
  // per-block call is a direct jump into a vectorized kernel.
  for (const ColumnBlock& cb : p.columns) {
    assert(cb.data.size() == cfg_.block_size);
    kernel_(slot[cb.column].data(), cb.data.data(), cfg_.block_size);
  }
}

void Aggregator::fold_codec(std::vector<compress::QuantAccumulator>& qacc,
                            const DataPacket& p) const {
  for (const ColumnBlock& cb : p.columns) {
    qacc[cb.column].fold(cb.enc.get());
  }
}

void Aggregator::stage(SlotState& st, SlotData& slot,
                       std::vector<std::shared_ptr<const DataPacket>>& pending,
                       std::vector<compress::QuantAccumulator>* qacc,
                       const std::shared_ptr<const DataPacket>& p) const {
  (void)st;
  if (p->columns.empty()) return;
  if (tracer_ != nullptr) {
    tracer_->slot_aggregate(pid_, net_.simulator().now(), p->stream, p->wid);
  }
  // Quantized-domain folding is exact and order-independent, so it happens
  // eagerly even in deterministic mode (where the float fold is deferred).
  if (qacc != nullptr) fold_codec(*qacc, *p);
  if (cfg_.deterministic_reduction) {
    pending.push_back(p);
  } else {
    fold(slot, *p);
  }
}

void Aggregator::drain_pending(
    SlotData& slot,
    std::vector<std::shared_ptr<const DataPacket>>& pending) const {
  if (pending.empty()) return;
  std::stable_sort(pending.begin(), pending.end(),
                   [](const auto& a, const auto& b) { return a->wid < b->wid; });
  for (const auto& p : pending) fold(slot, *p);
  pending.clear();
}

net::MessagePtr Aggregator::emit_result(
    SlotState& st, std::uint32_t stream, std::uint8_t ver,
    const std::vector<tensor::BlockIndex>& requests,
    SlotData& slot, std::vector<compress::QuantAccumulator>* qacc) {
  // No data for finished columns or for the bootstrap round (nothing has
  // been aggregated yet).
  const auto emits = [&](std::size_t c) {
    return st.cur[c] != tensor::kNoBlock && st.cur[c] != kPreStart;
  };
  bool any = false;
  for (std::size_t c = 0; c < st.info.columns && !any; ++c) any = emits(c);
  auto result = pool_.acquire(any);
  result->stream = stream;
  result->ver = ver;
  result->epoch = epoch_;
  result->header_bytes = cfg_.header_bytes;
  result->value_bytes = cfg_.value_bytes;
  result->request = requests;
  for (std::size_t c = 0; c < st.info.columns; ++c) {
    if (!emits(c)) continue;
    ColumnBlock cb;
    cb.column = static_cast<std::uint32_t>(c);
    cb.block = st.cur[c];
    // Move the aggregated column out instead of copying it; a pooled
    // replacement buffer is reset to identity for the next round. Columns
    // that were not emitted need no reset: finished columns never fold
    // again and bootstrap columns already hold identity.
    cb.data = std::move(slot[c]);
    slot[c] = pool_.acquire_block();
    slot[c].assign(cfg_.block_size, identity());
    if (qacc != nullptr) {
      compress::QuantAccumulator& a = (*qacc)[c];
      if (a.active) {
        // Every contribution shared codec + scales: replace the float fold
        // with the exact quantized-domain sum (order-independent, one
        // final float rounding).
        a.decode(cb.data.data(), cb.data.size());
        ++codec_exact_folds_;
      } else {
        ++codec_requant_folds_;
      }
      a.reset();
    } else if (cfg_.codec.enabled()) {
      ++codec_requant_folds_;  // min/max or fixed point: float fold only
    }
    if (cfg_.codec.enabled()) {
      // The result leg is encoded too: workers reconstruct the encoded
      // representatives, so the packet carries exactly what they will see.
      auto enc = pool_.acquire_sidecar();
      compress::encode_in_place(cb.data.data(), cb.data.size(),
                                cfg_.codec.codec, *enc);
      const std::size_t raw = cb.data.size() * cfg_.value_bytes;
      const std::size_t wire = enc->payload_bytes();
      if (raw > wire) codec_saved_bytes_ += raw - wire;
      cb.enc = std::move(enc);
    }
    result->columns.push_back(std::move(cb));
  }
  // Advance every column to the newly requested block.
  bool all_done = true;
  for (std::size_t c = 0; c < st.info.columns; ++c) {
    st.cur[c] = requests[c];
    if (st.cur[c] != tensor::kNoBlock) all_done = false;
  }
  net::MessagePtr shared = result;
  const std::vector<net::EndpointId>& targets = result_targets();
  if (cfg_.switch_multicast) {
    // In-network aggregator: the switch data plane replicates the packet —
    // one TX serialization regardless of worker count.
    net_.send_switch_multicast(self_, targets, shared);
  } else {
    // Server-based aggregator: one unicast per worker, each paying TX
    // serialization on the aggregator NIC.
    for (net::EndpointId w : targets) net_.send(self_, w, shared);
  }
  results_sent_ += targets.size();
  ++rounds_completed_;
  if (tracer_ != nullptr) {
    tracer_->round_advance(pid_, net_.simulator().now(), stream,
                           rounds_completed_);
  }
  if (all_done && !st.done) {
    st.done = true;
    ++streams_done_;
    if (tracer_ != nullptr) {
      tracer_->slot_complete(pid_, net_.simulator().now(), stream);
    }
  }
  return shared;
}

void Aggregator::handle_alg1(SlotState& st, std::uint32_t stream,
                             const std::shared_ptr<const DataPacket>& p) {
  if (st.done) return;
  stage(st, st.slot, st.pending, codec_fold_ ? &st.qacc : nullptr, p);
  assert(p->next.size() == st.info.columns);
  for (std::size_t c = 0; c < st.info.columns; ++c) {
    st.next_tbl[c * n_workers_ + p->wid] = p->next[c];
  }
  // Round completes when, for every unfinished column, every worker's
  // announced next block lies strictly past the block being aggregated
  // (Algorithm 1 line 22 generalized per column). The request table is a
  // member scratch buffer: this runs once per received packet.
  std::vector<tensor::BlockIndex>& requests = requests_scratch_;
  requests.assign(st.info.columns, tensor::kNoBlock);
  for (std::size_t c = 0; c < st.info.columns; ++c) {
    if (st.cur[c] == tensor::kNoBlock) continue;
    const tensor::BlockIndex* row = st.next_tbl.data() + c * n_workers_;
    tensor::BlockIndex mn = tensor::kNoBlock;
    for (std::size_t w = 0; w < n_workers_; ++w) mn = std::min(mn, row[w]);
    if (mn <= st.cur[c]) return;  // some owner still outstanding
    requests[c] = mn;
  }
  drain_pending(st.slot, st.pending);
  // The previous round's result is dead once every worker has responded to
  // it: reclaim its buffers for the packet about to be emitted.
  pool_.recycle(st.last_result);
  st.last_result = emit_result(st, stream, 0, requests, st.slot,
                               codec_fold_ ? &st.qacc : nullptr);
  if (faults_ != nullptr || elastic()) {
    st.last_emitted =
        std::static_pointer_cast<const ResultPacket>(st.last_result);
  }
}

void Aggregator::handle_alg2(SlotState& st, std::uint32_t stream,
                             const std::shared_ptr<const DataPacket>& p) {
  const std::uint8_t v = p->ver & 1;
  SlotVersion& sv = st.ver[v];
  if (sv.seen[p->wid]) {
    // Duplicate (retransmission). If this round already completed, the
    // worker must have missed the result: resend it to that worker only
    // (Algorithm 2 lines 46-49). Otherwise the payload was already
    // aggregated; drop.
    if (sv.count == 0 && sv.last_result) {
      net_.send(self_, workers_[p->wid], sv.last_result);
      ++duplicate_resends_;
      if (tracer_ != nullptr) {
        tracer_->duplicate_resend(pid_, net_.simulator().now(), p->stream,
                                  p->wid);
      }
    }
    return;
  }
  sv.seen[p->wid] = 1;
  st.ver[1 - v].seen[p->wid] = 0;
  ++sv.count;
  assert(p->next.size() == st.info.columns);
  if (sv.count == 1) {
    // First packet of a fresh round: the slot version is being reused;
    // reset the accumulator and the min-next tracker.
    for (auto& col : sv.data) col.assign(cfg_.block_size, identity());
    sv.pending.clear();
    for (auto& a : sv.qacc) a.reset();
    sv.min_next.assign(p->next.begin(), p->next.end());
    if (faults_ != nullptr && faults_->liveness_enabled()) {
      // Arm the round's liveness deadline: if this round (identified by
      // serial) is still open when it fires, some worker went silent.
      const std::uint64_t serial = sv.serial;
      net_.simulator().schedule_after(
          faults_->spec().retry.peer_dead_after,
          [this, stream, v, serial]() { liveness_check(stream, v, serial); });
    }
  } else {
    for (std::size_t c = 0; c < st.info.columns; ++c) {
      sv.min_next[c] = std::min(sv.min_next[c], p->next[c]);
    }
  }
  stage(st, sv.data, sv.pending, codec_fold_ ? &sv.qacc : nullptr, p);
  if (sv.count == active_count_) {
    sv.count = 0;
    ++sv.serial;  // round closed: void its pending liveness checks
    drain_pending(sv.data, sv.pending);
    // This version's previous result is obsolete once the new round has
    // completed: every worker has advanced past it. Reclaim its buffers.
    pool_.recycle(sv.last_result);
    sv.last_result = emit_result(st, stream, v, sv.min_next, sv.data,
                                 codec_fold_ ? &sv.qacc : nullptr);
    if (faults_ != nullptr || elastic()) {
      st.last_emitted =
          std::static_pointer_cast<const ResultPacket>(sv.last_result);
    }
  }
}

void Aggregator::handle_resync(net::EndpointId from, const ResyncRequest& rq) {
  const SlotState* st = find_slot(rq.stream);
  if (st == nullptr) throw std::logic_error("resync for unknown stream");
  auto resp = std::make_shared<ResyncResponse>();
  resp->stream = rq.stream;
  resp->header_bytes = cfg_.header_bytes;
  resp->result = st->last_emitted;  // null until the stream's first emit
  ++resyncs_served_;
  if (tracer_ != nullptr) {
    tracer_->resync(pid_, net_.simulator().now(), rq.stream);
  }
  // Reply to the requesting endpoint. For a crash-restart this is the
  // worker's own endpoint (identical to the pre-elastic reply target); a
  // join agent asking on a worker's behalf gets the state transfer itself.
  net_.send(self_, from, resp);
}

void Aggregator::liveness_check(std::uint32_t stream, std::uint8_t v,
                                std::uint64_t serial) {
  if (faults_ == nullptr || faults_->aborted()) return;
  const sim::Time now = net_.simulator().now();
  const sim::Time until = faults_->stalled_until(node_index_, now);
  if (until > now) {
    // We are inside our own stall window: contributions may be parked in
    // the deferral queue, so re-judge once the stall lifts.
    net_.simulator().schedule_at(until, [this, stream, v, serial]() {
      liveness_check(stream, v, serial);
    });
    return;
  }
  const SlotState* st = find_slot(stream);
  if (st == nullptr) return;
  const SlotVersion& sv = st->ver[v];
  if (st->done || sv.serial != serial || sv.count == 0) return;
  // The round that armed this check is still open past the liveness
  // deadline: declare the lowest-id silent worker dead.
  for (std::uint32_t w = 0; w < n_workers_; ++w) {
    if (!active_.empty() && !active_[w]) continue;  // not expected this epoch
    if (!sv.seen[w]) {
      faults_->declare_worker_dead(
          w, now,
          "worker " + std::to_string(w) + " silent on stream " +
              std::to_string(stream) + " past the liveness deadline");
      return;
    }
  }
}

}  // namespace omr::core
