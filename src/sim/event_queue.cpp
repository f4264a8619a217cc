#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace omr::sim {

namespace {

/// EventId layout: low 32 bits hold slot+1 (so no valid id is 0), high 32
/// bits the slot generation at scheduling time.
constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) |
         (static_cast<EventId>(slot) + 1);
}

}  // namespace

std::uint32_t Simulator::alloc_slot(Time t) {
  if (t < now_) throw std::invalid_argument("schedule_at: time in the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    gens_.push_back(0);
    heap_pos_.push_back(0);
  }
  return slot;
}

bool Simulator::wheel_insert(Time t, std::uint32_t slot) {
  const auto offset =
      static_cast<std::uint32_t>(static_cast<std::size_t>(t) & kWheelMask);
  WheelLevel* level = &fine_;
  std::size_t b = offset;
  if (t - wheel_base_ >= kFineSpan) {
    if (t - coarse_base_ >= kCoarseSpan) return false;
    level = &coarse_;
    b = static_cast<std::size_t>(t >> kWheelBits) & kWheelMask;
  }
  std::uint32_t node;
  if (free_node_ != kNil) {
    node = free_node_;
    free_node_ = wheel_pool_[node].next;
  } else {
    node = static_cast<std::uint32_t>(wheel_pool_.size());
    wheel_pool_.emplace_back();
  }
  wheel_pool_[node] = WheelNode{slot, gens_[slot], kNil, offset};
  level->append(wheel_pool_, b, node);
  heap_pos_[slot] = kWheelPos;
  return true;
}

void Simulator::WheelLevel::clear_bit(std::size_t b) {
  const std::size_t w = b >> 6;
  occupied_[w] &= ~(std::uint64_t{1} << (b & 63));
  if (occupied_[w] == 0) {
    summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
  }
}

void Simulator::WheelLevel::clear() {
  for (std::size_t b = next_occupied(0); b < kWheelSize;
       b = next_occupied(b + 1)) {
    buckets_[b].head = kNil;
  }
  std::fill(occupied_.begin(), occupied_.end(), 0);
  std::fill(summary_.begin(), summary_.end(), 0);
}

std::size_t Simulator::WheelLevel::next_occupied(std::size_t cursor) const {
  if (cursor >= kWheelSize) return kWheelSize;
  std::size_t w = cursor >> 6;
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (cursor & 63));
  if (word == 0) {
    // Jump over empty words via the summary level instead of walking them.
    ++w;
    std::size_t sw = w >> 6;
    if (sw >= summary_.size()) return kWheelSize;
    std::uint64_t sword = summary_[sw] & (~std::uint64_t{0} << (w & 63));
    while (sword == 0) {
      if (++sw >= summary_.size()) return kWheelSize;
      sword = summary_[sw];
    }
    w = (sw << 6) + static_cast<std::size_t>(std::countr_zero(sword));
    word = occupied_[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
}

EventId Simulator::enqueue(Time t, std::uint32_t slot) {
  const std::uint32_t seq = seq_++;
  ++pending_;
  const std::uint32_t gen = gens_[slot];
  if (!wheel_insert(t, slot)) {
    heap_pos_[slot] = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(HeapNode{t, seq, slot});
    sift_up(heap_.size() - 1);
  }
  return make_id(slot, gen);
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t lo = static_cast<std::uint32_t>(id);
  if (lo == 0) return false;
  const std::uint32_t slot = lo - 1;
  if (slot >= slots_.size()) return false;
  if (gens_[slot] != static_cast<std::uint32_t>(id >> 32) || !slots_[slot]) {
    return false;
  }
  if (heap_pos_[slot] != kWheelPos) {
    remove_at(heap_pos_[slot]);
  }
  // A wheel entry is not unlinked: bumping the generation kills it, and the
  // stale entry is reclaimed when its bucket is popped or cascaded.
  slots_[slot].reset();
  ++gens_[slot];
  free_slots_.push_back(slot);
  ++cancelled_total_;
  --pending_;
  return true;
}

void Simulator::cascade(std::size_t cb) {
  std::uint32_t node = coarse_.head(cb);
  coarse_.set_head(cb, kNil);
  while (node != kNil) {
    WheelNode& n = wheel_pool_[node];
    const std::uint32_t next = n.next;
    if (gens_[n.slot] == n.gen) {
      n.next = kNil;
      fine_.append(wheel_pool_, n.offset, node);
    } else {
      release_node(node);
    }
    node = next;
  }
}

void Simulator::sift_up(std::size_t i) {
  HeapNode node = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(node, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i].slot] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = node;
  heap_pos_[node.slot] = static_cast<std::uint32_t>(i);
}

void Simulator::sift_down(std::size_t i) {
  HeapNode node = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], node)) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i].slot] = static_cast<std::uint32_t>(i);
    i = child;
  }
  heap_[i] = node;
  heap_pos_[node.slot] = static_cast<std::uint32_t>(i);
}

void Simulator::remove_at(std::size_t pos) {
  assert(pos < heap_.size());
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_.back();
  heap_.pop_back();
  heap_pos_[heap_[pos].slot] = static_cast<std::uint32_t>(pos);
  // The replacement may violate the heap property in either direction.
  if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

Time Simulator::run() {
  const Time end = run_until(kTimeInfinity);
  reset_storage();
  return end;
}

void Simulator::reset_storage() {
  assert(pending_ == 0 && heap_.empty());
  const std::uint64_t freed = executed_ + cancelled_total_;
  if (freed == freed_at_reset_) return;
  freed_at_reset_ = freed;
  // Nothing is pending, so every entry still linked in a bucket is dead.
  fine_.clear();
  coarse_.clear();
  const auto nodes = static_cast<std::uint32_t>(wheel_pool_.size());
  for (std::uint32_t i = 0; i < nodes; ++i) wheel_pool_[i].next = i + 1;
  if (nodes != 0) wheel_pool_.back().next = kNil;
  free_node_ = nodes != 0 ? 0 : kNil;
  // Every slot is free, so free_slots_ already holds slots_.size() entries
  // (no allocation). It is popped from the back: store them descending.
  const auto slots = static_cast<std::uint32_t>(slots_.size());
  assert(free_slots_.size() == slots);
  for (std::uint32_t i = 0; i < slots; ++i) free_slots_[i] = slots - 1 - i;
}

std::size_t Simulator::wheel_entries() const {
  std::size_t free_nodes = 0;
  for (std::uint32_t n = free_node_; n != kNil; n = wheel_pool_[n].next) {
    ++free_nodes;
  }
  return wheel_pool_.size() - free_nodes;
}

Time Simulator::run_until(Time deadline) {
  while (pending_ != 0) {
    // Find the earliest live fine entry in [now_, wheel_base_ + window).
    // Buckets before the cursor have already fired; stale (cancelled)
    // entries met along the way are dropped and their buckets cleared.
    const std::size_t cursor =
        now_ > wheel_base_ ? static_cast<std::size_t>(now_ - wheel_base_) : 0;
    std::size_t hit = kWheelSize;  // bucket of the earliest live entry
    for (std::size_t b = fine_.next_occupied(cursor); b < kWheelSize;
         b = fine_.next_occupied(b + 1)) {
      // Pop dead (cancelled) entries off the head; the first live entry is
      // the bucket's FIFO winner (chains are in schedule order, see the
      // class comment). Dead entries behind a live head wait their turn.
      std::uint32_t head = fine_.head(b);
      while (head != kNil &&
             gens_[wheel_pool_[head].slot] != wheel_pool_[head].gen) {
        const std::uint32_t dead = head;
        head = wheel_pool_[dead].next;
        release_node(dead);
      }
      fine_.set_head(b, head);
      if (head != kNil) {
        hit = b;
        break;
      }
    }
    if (hit != kWheelSize) {
      const Time t = wheel_base_ + static_cast<Time>(hit);
      if (t > deadline) break;
      // FIFO at equal timestamps: the (live) head is the earliest schedule.
      const std::uint32_t node = fine_.head(hit);
      const std::uint32_t slot = wheel_pool_[node].slot;
      fine_.set_head(hit, wheel_pool_[node].next);
      release_node(node);
      // Detach the callback and free the slot *before* invoking: the
      // handler may schedule new events (reusing the slot) or grow the
      // slot pool.
      EventFn fn = std::move(slots_[slot]);
      ++gens_[slot];
      free_slots_.push_back(slot);
      --pending_;
      now_ = t;
      ++executed_;
      fn();
      continue;
    }
    // The fine level is drained: cascade the next occupied coarse bucket.
    // The bucket holding wheel_base_ is always empty (its times belong to
    // the fine window), so the scan starts there. A bucket that starts past
    // the deadline stays put: the clock stops at the deadline, and the fine
    // window must never start after now_.
    const std::size_t cb = coarse_.next_occupied(
        static_cast<std::size_t>((wheel_base_ - coarse_base_) >> kWheelBits));
    if (cb != kWheelSize) {
      const Time start = coarse_base_ + (static_cast<Time>(cb) << kWheelBits);
      if (start > deadline) break;
      wheel_base_ = start;
      cascade(cb);
      continue;
    }
    // Both wheel levels are drained: the next event (if any) is in the
    // heap. Jump both windows to it and migrate, in (t, seq) order,
    // everything that now falls inside the coarse window — each overflow
    // event migrates exactly once.
    if (heap_.empty() || heap_[0].t > deadline) break;
    coarse_base_ = heap_[0].t & ~(kCoarseSpan - 1);
    wheel_base_ = heap_[0].t & ~(kFineSpan - 1);
    while (!heap_.empty() && heap_[0].t - coarse_base_ < kCoarseSpan) {
      const HeapNode node = heap_[0];
      remove_at(0);
      wheel_insert(node.t, node.slot);
    }
  }
  // Whether we stopped on an empty queue or a future event, the caller has
  // observed that nothing fires before `deadline`: advance the clock to it.
  if (deadline != kTimeInfinity && now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace omr::sim
