#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace omr::sim {

/// Handle identifying a scheduled event so it can be cancelled (timers).
/// Encodes (slot, generation); stale handles — already fired or already
/// cancelled — are rejected in O(1) without any lookup structure.
using EventId = std::uint64_t;

/// Move-only callable with small-buffer optimization. Every steady-path
/// event in the simulator (message delivery, deferred send, retransmission
/// timer) captures at most a few pointers plus one shared_ptr, which fits
/// the inline buffer — scheduling such events performs no heap allocation.
/// Larger or over-aligned callables transparently fall back to the heap.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    emplace(std::forward<F>(f));
  }

  /// Destroy the current callable (if any) and construct `f` directly in
  /// this object's storage — lets the scheduler build the callable in its
  /// slot without a relocation through a temporary.
  template <typename F>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      // Trivially-copyable callables (the common case: lambdas capturing a
      // few raw pointers/ints) relocate with one inline memcpy and need no
      // destructor — no indirect calls on the move/destroy path.
      if constexpr (std::is_trivially_copyable_v<Fn> &&
                    std::is_trivially_destructible_v<Fn>) {
        ops_ = &kTrivialOps<Fn>;
      } else {
        ops_ = &kInlineOps<Fn>;
      }
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the callable from `src` storage into `dst` storage
    /// and destroy the source (a destructive move, so the buffer can be
    /// relocated when the slot pool grows). nullptr = memcpy the inline
    /// buffer (trivially-copyable callables).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);  // nullptr = trivially destructible
  };

  template <typename Fn>
  static constexpr Ops kTrivialOps = {
      [](void* b) { (*std::launder(reinterpret_cast<Fn*>(b)))(); },
      nullptr,
      nullptr,
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* b) { (*std::launder(reinterpret_cast<Fn*>(b)))(); },
      [](void* dst, void* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
      },
      [](void* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* b) { (**std::launder(reinterpret_cast<Fn**>(b)))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](void* b) { delete *std::launder(reinterpret_cast<Fn**>(b)); },
  };

  void steal(EventFn& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Discrete-event simulator: a virtual clock plus an ordered event queue.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which makes runs deterministic. Protocol code is written as ordinary
/// event-driven handlers; the simulator only decides *when* they run.
///
/// The queue is a hierarchical timing wheel (Varghese & Lauck) over a
/// recycled slot pool, with three horizons:
///
///  - The fine level: kWheelSize one-nanosecond buckets covering the
///    2^14 ns (16 us) window [wheel_base, wheel_base + 2^14). Events pop
///    from here, in O(1): a bucket is a FIFO chain, found through a
///    two-level occupancy bitmap scanned with countr_zero.
///  - The coarse level: kWheelSize buckets of 2^14 ns covering the aligned
///    2^28 ns (268 ms) window [coarse_base, coarse_base + 2^28). When the
///    fine level drains, the next occupied coarse bucket cascades: the fine
///    window moves to that bucket's start and its live entries are
///    re-appended to fine buckets in chain order.
///  - An index-addressable binary heap for events past the coarse window.
///    When both levels drain, the coarse window jumps to the heap
///    minimum's window and every heap event inside it migrates, in
///    (t, seq) order.
///
/// In the perfbench omni_twotier workload (64 workers, seed 1) 85% of the
/// 9.47M schedules land in the coarse range (16 us to 8 ms ahead); in
/// serve_cotenant 51% of 16M do. Schedule, cancel and pop are O(1) on both
/// wheel levels; only events more than 268 ms ahead pay O(log n).
///
/// Ordering is identical to one queue ordered by (t, seq), by construction:
///  - a level only holds times beyond the finer level's window (the heap
///    only times beyond the coarse window);
///  - every migration into a range (heap to coarse, coarse to fine) happens
///    before the first direct schedule into that range, because a range
///    accepts direct schedules only once its window has moved over it;
///  - therefore every bucket's chain is in schedule order, and the fine
///    bucket's head is always the FIFO winner.
///
/// cancel(id) is O(1) on both wheel levels (the entry dies by a generation
/// check and is reclaimed when its bucket is popped or cascaded or the
/// queue drains, so dead entries are bounded by the schedules within the
/// coarse window) and
/// O(log n) in place for heap events. Slots, bucket entries and heap nodes
/// are all recycled, so the steady path (with inline-sized callbacks, see
/// EventFn) performs no allocation.
///
/// Storage law. Inside a run, freed slots and bucket entries are reused
/// LIFO: the most recently freed comes back first. When run() returns with
/// the queue drained, the storage is reset in place: every dead bucket
/// entry left in either wheel level is dropped, and both free lists are
/// rebuilt so the next schedules take slots and entries 0, 1, 2, ... in
/// order. No dead entry is kept across a drain. Slot generations and the
/// schedule counter survive the reset, so an id from before the drain
/// stays dead. The reset allocates nothing and is skipped when nothing was
/// freed since the previous one. A reused simulator (one per Session)
/// thereby starts each collective on compact storage, like a fresh one.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (must be >= now()).
  EventId schedule_at(Time t, EventFn fn) {
    const std::uint32_t slot = alloc_slot(t);
    slots_[slot] = std::move(fn);
    return enqueue(t, slot);
  }

  /// Callable overload: constructs the callable directly in its slot —
  /// one move fewer than going through an EventFn temporary.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(Time t, F&& f) {
    const std::uint32_t slot = alloc_slot(t);
    slots_[slot].emplace(std::forward<F>(f));
    return enqueue(t, slot);
  }

  /// Schedule `fn` to run `dt` nanoseconds from now.
  EventId schedule_after(Time dt, EventFn fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_after(Time dt, F&& f) {
    return schedule_at(now_ + dt, std::forward<F>(f));
  }

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or unknown event is a no-op. Returns true if the event was pending.
  bool cancel(EventId id);

  /// Run until the queue is empty, then reset the storage (see the class
  /// comment). Returns the final virtual time.
  Time run();

  /// Run until the queue is empty or `deadline` is reached.
  Time run_until(Time deadline);

  /// Number of events executed so far (for diagnostics / loop detection).
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events cancelled before firing (retransmission timers that
  /// were satisfied in time). Reported by the telemetry RunReport.
  std::uint64_t events_cancelled() const { return cancelled_total_; }

  /// True if no events are pending.
  bool idle() const { return pending_ == 0; }

  /// Bucket entries linked in the wheel levels, live or dead (the entry
  /// pool minus its free chain). O(pool); for tests and diagnostics.
  std::size_t wheel_entries() const;

 private:
  /// Wheel geometry: both levels have kWheelSize buckets; fine buckets are
  /// 1 ns wide (a 2^14 ns window), coarse buckets 2^14 ns (a 2^28 ns
  /// window). Fixed on purpose: the protocols' delays, from NIC
  /// serialization to retransmission timeouts, fall inside the coarse
  /// window (in omni_twotier 0.12% of schedules reach the heap).
  static constexpr std::size_t kWheelBits = 14;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  static constexpr Time kFineSpan = Time{1} << kWheelBits;
  static constexpr Time kCoarseSpan = Time{1} << (2 * kWheelBits);
  /// heap_pos_ sentinel: the slot's event lives in a wheel level.
  static constexpr std::uint32_t kWheelPos = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct HeapNode {  // 16 bytes: two nodes per cache line during sifts
    Time t;
    std::uint32_t seq;  // tie-break: FIFO at equal times (wrap-safe compare)
    std::uint32_t slot;
  };
  /// Bucket entry. Entries of both levels live in one pooled array
  /// (wheel_pool_) chained through `next`, so the wheels' working set stays
  /// small and a cascade relinks entries instead of copying them.
  struct WheelNode {  // 16 bytes
    std::uint32_t slot;
    std::uint32_t gen;     // must match gens_[slot], else the entry is dead
    std::uint32_t next;    // next node in this bucket, or kNil
    std::uint32_t offset;  // t & kWheelMask: the fine bucket on cascade
  };

  /// One wheel level: kWheelSize FIFO bucket chains threaded through the
  /// shared node pool, and a two-level occupancy bitmap over them.
  class WheelLevel {
   public:
    /// Append pooled entry `node` (its `next` already kNil) to bucket b.
    void append(std::vector<WheelNode>& pool, std::size_t b,
                std::uint32_t node) {
      Bucket& k = buckets_[b];
      if (k.head == kNil) {
        k.head = node;
        occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
        summary_[b >> 12] |= std::uint64_t{1} << ((b >> 6) & 63);
      } else {
        pool[k.tail].next = node;
      }
      k.tail = node;
    }
    std::uint32_t head(std::size_t b) const { return buckets_[b].head; }
    /// Make `node` (kNil = none) bucket b's new head after popping entries
    /// off the front; an emptied bucket leaves the bitmap.
    void set_head(std::size_t b, std::uint32_t node) {
      buckets_[b].head = node;
      if (node == kNil) clear_bit(b);
    }
    /// First marked bucket >= cursor, or kWheelSize if none. O(1): at most
    /// one occupied_ word, the summary words, and one more occupied_ word.
    std::size_t next_occupied(std::size_t cursor) const;
    /// Empty every bucket without visiting its chain; the caller owns the
    /// entries' return to the pool.
    void clear();

   private:
    struct Bucket {
      std::uint32_t head = kNil;
      std::uint32_t tail = kNil;  // valid only while head != kNil
    };
    void clear_bit(std::size_t b);

    std::vector<Bucket> buckets_ = std::vector<Bucket>(kWheelSize);
    /// Bit b of occupied_ marks a non-empty bucket; bit w of summary_
    /// marks a non-zero occupied_ word. A scan for the next event is a
    /// constant number of word reads even when the level is empty.
    std::vector<std::uint64_t> occupied_ =
        std::vector<std::uint64_t>(kWheelSize / 64, 0);
    std::vector<std::uint64_t> summary_ =
        std::vector<std::uint64_t>(kWheelSize / 64 / 64, 0);
  };

  static bool earlier(const HeapNode& a, const HeapNode& b) {
    // The seq comparison is serial-number style: correct across uint32
    // wrap as long as no two coexisting equal-time events are 2^31
    // schedules apart, which the heap size (< 2^31) guarantees.
    if (a.t != b.t) return a.t < b.t;
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }

  /// Validate `t`, pop (or grow) a free slot, and return its index. The
  /// caller stores the callable, then calls enqueue().
  std::uint32_t alloc_slot(Time t);
  /// Insert the filled slot into a wheel level or the heap; returns the id.
  EventId enqueue(Time t, std::uint32_t slot);
  /// Append the slot's entry to the finest level whose window holds `t`;
  /// false (nothing inserted) if `t` is past the coarse window.
  bool wheel_insert(Time t, std::uint32_t slot);
  /// Return a bucket entry to the pool.
  void release_node(std::uint32_t node) {
    wheel_pool_[node].next = free_node_;
    free_node_ = node;
  }
  /// Move coarse bucket cb's live entries, in chain order, into the fine
  /// level (whose window the caller has moved to the bucket's start), and
  /// reclaim its dead ones.
  void cascade(std::size_t cb);

  /// The drain-time storage reset of the class comment. Requires an
  /// empty queue; a no-op when nothing was freed since the last reset.
  void reset_storage();

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove the heap node at `pos`, restoring the heap property.
  void remove_at(std::size_t pos);
  Time now_ = 0;
  std::uint32_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_total_ = 0;
  /// executed_ + cancelled_total_ at the last storage reset: each counts
  /// one freed slot, so equality means the free lists are still in order.
  std::uint64_t freed_at_reset_ = 0;
  std::size_t pending_ = 0;  // live (scheduled, not fired/cancelled) events
  /// Window starts: coarse_base_ <= wheel_base_ <= now_ whenever events
  /// are scheduled, so offsets from either base are non-negative.
  Time wheel_base_ = 0;   // kFineSpan-aligned start of the fine window
  Time coarse_base_ = 0;  // kCoarseSpan-aligned start of the coarse window
  WheelLevel fine_;
  WheelLevel coarse_;
  std::vector<WheelNode> wheel_pool_;  // bucket entries, recycled
  std::uint32_t free_node_ = kNil;     // head of the recycled-entry chain
  std::vector<HeapNode> heap_;
  std::vector<EventFn> slots_;  // callbacks of pending events
  /// Slot generations, bumped on fire/cancel so stale ids and bucket
  /// entries fail; heap_ index of each pending slot (kWheelPos = in a
  /// wheel level). Both are dense 4-byte arrays parallel to slots_ and kept
  /// out of the 64-byte EventFn records on purpose: the cascade's liveness
  /// check and every sift level touch one entry each, and those scattered
  /// accesses stay inside a few cache lines.
  std::vector<std::uint32_t> gens_;
  std::vector<std::uint32_t> heap_pos_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace omr::sim
