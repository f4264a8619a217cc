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
/// The queue is a two-level structure over a recycled slot pool:
///
///  - A timing wheel of kWheelSize one-nanosecond buckets covers the
///    near-future window [wheel_base, wheel_base + kWheelSize). Scheduling
///    into the window and popping from it are O(1): an append to the
///    bucket plus one bit in an occupancy bitmap, scanned with countr_zero.
///    Nearly all steady-state events (message deliveries, deferred sends,
///    retransmission timers) land here.
///  - Events beyond the window go to an index-addressable binary heap and
///    migrate into the wheel exactly once, when the window advances past
///    their bucket (the wheel never revolves: the base jumps straight to
///    the earliest far event's window when the wheel drains).
///
/// cancel(id) is O(1) for wheel events (the bucket entry dies by a
/// generation check when the cursor reaches it — bloat is bounded by the
/// window) and O(log n) in-place for far events — no unbounded tombstone
/// accumulation in either level. Slots, buckets and heap nodes are all
/// recycled, so the steady path (with inline-sized callbacks, see EventFn)
/// performs no allocation.
///
/// Ordering is identical to a single ordered queue: wheel events always
/// precede far-heap events (the heap only holds times beyond the window),
/// and equal-time events fire in scheduling order via the sequence number,
/// so runs are bit-reproducible.
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
    slots_[slot].fn = std::move(fn);
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
    slots_[slot].fn.emplace(std::forward<F>(f));
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

  /// Run until the queue is empty. Returns the final virtual time.
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

 private:
  /// Wheel geometry: kWheelSize buckets of 1 ns. 16 us of horizon covers
  /// every steady-state delay in the simulated protocols (NIC serialization,
  /// fabric latency, retransmission timeouts); only coarse device-model
  /// deadlines overflow to the far heap.
  static constexpr std::size_t kWheelBits = 14;
  static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSize - 1;
  /// heap_pos_ sentinel: the slot's event lives in the wheel, not the heap.
  static constexpr std::uint32_t kWheelPos = 0xFFFFFFFFu;

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;  // bumped on fire/cancel; stale ids fail
  };
  struct HeapNode {  // 16 bytes: two nodes per cache line during sifts
    Time t;
    std::uint32_t seq;  // tie-break: FIFO at equal times (wrap-safe compare)
    std::uint32_t slot;
  };
  /// Bucket entry; its time is implied by the bucket. Entries live in one
  /// pooled array (wheel_pool_) chained through `next`, so the wheel's
  /// working set stays a few dozen KB — per-bucket containers would
  /// scatter headers and heap blocks across memory and miss on nearly
  /// every access when events are sparse across the window.
  struct WheelNode {  // 16 bytes
    /// In a bucket's *head* node: pool index of the bucket's tail (where
    /// the next entry is appended). Unused in non-head nodes. Propagated
    /// to the new head when the head is popped.
    std::uint32_t tail;
    std::uint32_t slot;
    std::uint32_t gen;  // must match the slot's gen, else the entry is dead
    std::uint32_t next;  // next node in this bucket, or kNil
  };
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

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
  /// Insert the filled slot into the wheel or the far heap; returns the id.
  EventId enqueue(Time t, std::uint32_t slot);
  /// Append a pooled wheel entry to bucket t & kWheelMask.
  void wheel_insert(Time t, std::uint32_t slot);
  /// First marked bucket >= cursor, or kWheelSize if none. O(1): at most
  /// one occupied_ word, the summary words, and one more occupied_ word.
  std::size_t next_occupied(std::size_t cursor) const;
  /// Mark bucket b empty in both bitmap levels.
  void clear_bucket_bit(std::size_t b);

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove the heap node at `pos`, restoring the heap property.
  void remove_at(std::size_t pos);
  Time now_ = 0;
  std::uint32_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::size_t pending_ = 0;  // live (scheduled, not fired/cancelled) events
  Time wheel_base_ = 0;      // kWheelSize-aligned start of the wheel window
  /// Each bucket is a FIFO queue (append at the tail cached in the head
  /// node, pop at the head) chained through WheelNode::next. Appends
  /// happen in schedule order — fresh schedules arrive in program order
  /// and heap migration pops in (t, seq) order, and the far heap never
  /// holds a time inside the window — so the head is always the FIFO
  /// winner: no per-pop min-seq chain walk (which is quadratic when a
  /// synchronized round drops hundreds of equal-time events into one
  /// bucket).
  std::vector<std::uint32_t> bucket_head_ =
      std::vector<std::uint32_t>(kWheelSize, kNil);  // wheel_pool_ indices
  /// Two-level occupancy bitmap: bit b of occupied_ marks a non-empty
  /// bucket; bit w of summary_ marks a non-zero occupied_ word. A scan for
  /// the next event is a constant number of word reads even when the wheel
  /// is empty (the common case when NIC serialization pushes deliveries
  /// beyond the window into the far heap).
  std::vector<std::uint64_t> occupied_ =
      std::vector<std::uint64_t>(kWheelSize / 64, 0);
  std::vector<std::uint64_t> summary_ =
      std::vector<std::uint64_t>(kWheelSize / 64 / 64, 0);
  std::vector<WheelNode> wheel_pool_;   // bucket entries, recycled
  std::uint32_t free_node_ = kNil;      // head of the recycled-entry chain
  std::vector<HeapNode> heap_;
  std::vector<Slot> slots_;
  /// heap_ index of each pending slot (kWheelPos = in the wheel), parallel
  /// to slots_. Kept out of Slot on purpose: every sift level updates one
  /// entry, and a dense 4-byte array keeps those scattered stores inside a
  /// few cache lines instead of touching the 64-byte EventFn-bearing Slot
  /// records.
  std::vector<std::uint32_t> heap_pos_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace omr::sim
