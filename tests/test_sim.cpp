#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace omr::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_EQ(milliseconds(3), 3'000'000);
  EXPECT_EQ(microseconds(5), 5'000);
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2)), 2.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(7)), 7.0);
}

TEST(Time, FromSecondsRoundsUpTinyDurations) {
  // A 1-byte transfer must not take zero time.
  EXPECT_GE(from_seconds(1e-10), 0);
  EXPECT_EQ(from_seconds(0.6e-9), 1);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, FifoAtEqualTimes) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  std::vector<Time> fire_times;
  s.schedule_at(10, [&] {
    fire_times.push_back(s.now());
    s.schedule_after(15, [&] { fire_times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_EQ(fire_times[0], 10);
  EXPECT_EQ(fire_times[1], 25);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  EventId id = s.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Simulator, CancelTwiceIsNoop) {
  Simulator s;
  EventId id = s.schedule_at(10, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(9999));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int count = 0;
  s.schedule_at(10, [&] { ++count; });
  s.schedule_at(100, [&] { ++count; });
  s.run_until(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 50);
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator s;
  s.schedule_at(10, [&s] {
    EXPECT_THROW(s.schedule_at(5, [] {}), std::invalid_argument);
  });
  s.run();
}

TEST(Simulator, IdleReflectsPendingEvents) {
  Simulator s;
  EXPECT_TRUE(s.idle());
  EventId id = s.schedule_at(10, [] {});
  EXPECT_FALSE(s.idle());
  s.cancel(id);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, CancelInsideHandlerPreventsLaterEvent) {
  // A handler cancelling an event scheduled after itself (the ack-arrives-
  // before-timeout pattern) must suppress it even mid-run.
  Simulator s;
  bool fired = false;
  EventId timer = s.schedule_at(100, [&] { fired = true; });
  s.schedule_at(50, [&] { EXPECT_TRUE(s.cancel(timer)); });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_EQ(s.events_cancelled(), 1u);
}

TEST(Simulator, CancelThenFireTimeIsNoop) {
  // Running past a cancelled event's time must not resurrect it, and its
  // handle must stay dead afterwards.
  Simulator s;
  int count = 0;
  EventId id = s.schedule_at(10, [&] { ++count; });
  s.schedule_at(20, [&] { ++count; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(s.cancel(id));
  EXPECT_EQ(s.events_cancelled(), 1u);
}

TEST(Simulator, RunUntilDeadlineSplitsEqualTimeGroup) {
  // Deadline exactly at a tied group: the whole group fires (deadline is
  // inclusive), and a later run resumes with FIFO order intact.
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) s.schedule_at(10, [&order, i] { order.push_back(i); });
  for (int i = 4; i < 8; ++i) s.schedule_at(11, [&order, i] { order.push_back(i); });
  s.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.now(), 10);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, CancelledEventsAreCountedOnce) {
  Simulator s;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(s.schedule_at(10 + i, [] {}));
  for (int i = 0; i < 10; i += 2) EXPECT_TRUE(s.cancel(ids[static_cast<size_t>(i)]));
  for (int i = 0; i < 10; i += 2) EXPECT_FALSE(s.cancel(ids[static_cast<size_t>(i)]));
  s.run();
  EXPECT_EQ(s.events_cancelled(), 5u);
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, FarFutureEventsKeepFifoOrder) {
  // Events far beyond the timing-wheel window live in the far heap and
  // migrate into the wheel when the window advances. Equal-time events must
  // still fire in scheduling order after migration, and interleaved
  // near/far schedules must come out globally time-ordered.
  Simulator s;
  std::vector<int> order;
  const Time far = 10'000'000;  // >> wheel window
  for (int i = 0; i < 8; ++i) s.schedule_at(far, [&order, i] { order.push_back(i); });
  s.schedule_at(5, [&order] { order.push_back(100); });
  s.schedule_at(far + 3, [&order] { order.push_back(101); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{100, 0, 1, 2, 3, 4, 5, 6, 7, 101}));
  EXPECT_EQ(s.now(), far + 3);
}

TEST(Simulator, CancelWorksInBothQueueLevels) {
  // One event per horizon: inside the 16 us fine window, inside the 268 ms
  // coarse window, and past both (the overflow heap). Each must be
  // cancellable exactly once, and the survivors at every horizon must
  // still fire in time order.
  Simulator s;
  std::vector<int> fired;
  EventId near_id = s.schedule_at(10, [&] { fired.push_back(0); });
  EventId mid_id = s.schedule_at(20'000'000, [&] { fired.push_back(1); });
  EventId far_id = s.schedule_at(2'000'000'000, [&] { fired.push_back(2); });
  // Survivors keep every level non-trivial after the removals.
  s.schedule_at(11, [&] { fired.push_back(3); });
  s.schedule_at(30'000'000, [&] { fired.push_back(4); });
  s.schedule_at(3'000'000'000, [&] { fired.push_back(5); });
  EXPECT_TRUE(s.cancel(far_id));
  EXPECT_TRUE(s.cancel(mid_id));
  EXPECT_TRUE(s.cancel(near_id));
  EXPECT_FALSE(s.cancel(far_id));
  EXPECT_FALSE(s.cancel(mid_id));
  EXPECT_FALSE(s.cancel(near_id));
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(s.events_cancelled(), 3u);
  EXPECT_EQ(s.now(), 3'000'000'000);
}

TEST(Simulator, OverflowEventPrecedesLaterCoarseScheduleAtSameTime) {
  // T lies in the second 2^28 ns (268 ms) window, so A waits in the
  // overflow heap until the queue reaches that window; B, C and D are
  // scheduled for T later, when T is within reach of the wheels, from a
  // handler 1 ms before T (coarse range), from the top level after a
  // run_until 0.5 ms before T (coarse range), and from a handler 100 ns
  // before T (fine range). Equal times fire in schedule order: A first.
  Simulator s;
  const Time t = Time{3} << 27;
  std::string order;
  s.schedule_at(t, [&] { order += 'A'; });
  s.schedule_at(t - 1'000'000, [&] {
    order += 'x';
    s.schedule_at(t, [&] { order += 'B'; });
  });
  s.schedule_at(t - 100, [&] {
    order += 'y';
    s.schedule_at(t, [&] { order += 'D'; });
  });
  s.run_until(t - 500'000);
  EXPECT_EQ(order, "x");
  s.schedule_at(t, [&] { order += 'C'; });
  s.run();
  EXPECT_EQ(order, "xyABCD");
  EXPECT_EQ(s.now(), t);
}

TEST(Simulator, RescheduleFromMigratedHandlerKeepsOrder) {
  // A migrated far event scheduling a near follow-up exercises the
  // window-advance path: the follow-up lands in the freshly-based wheel.
  Simulator s;
  std::vector<Time> fire_times;
  s.schedule_at(50'000'000, [&] {
    fire_times.push_back(s.now());
    s.schedule_after(7, [&] { fire_times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(fire_times.size(), 2u);
  EXPECT_EQ(fire_times[0], 50'000'000);
  EXPECT_EQ(fire_times[1], 50'000'007);
}

TEST(Simulator, LargeCaptureCallablesFallBackToHeap) {
  // Captures beyond EventFn's inline buffer must still work (heap-backed).
  Simulator s;
  std::array<std::uint64_t, 16> big;  // 128 bytes > EventFn::kInlineBytes
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i;
  std::uint64_t sum = 0;
  s.schedule_at(10, [big, &sum] {
    for (auto v : big) sum += v;
  });
  s.run();
  EXPECT_EQ(sum, 120u);
}

TEST(Simulator, StressMatchesReferenceOrdering) {
  // Randomized schedule/cancel workload cross-checked against a reference
  // model: a stable-sorted list of (time, seq). Mixes near (wheel) and far
  // (heap) horizons so migration is exercised repeatedly.
  Simulator s;
  Rng rng(123);
  struct Ref {
    Time t;
    int tag;
  };
  std::vector<Ref> expected;
  std::vector<int> fired;
  std::vector<EventId> cancellable;
  int tag = 0;
  for (int i = 0; i < 2000; ++i) {
    const Time t = 1 + static_cast<Time>(
        rng.next_below(2) ? rng.next_below(1000) : rng.next_below(40'000'000));
    const int my_tag = tag++;
    EventId id = s.schedule_at(t, [&fired, my_tag] { fired.push_back(my_tag); });
    if (rng.next_below(10) == 0) {
      cancellable.push_back(id);
    } else {
      expected.push_back({t, my_tag});
    }
  }
  for (EventId id : cancellable) EXPECT_TRUE(s.cancel(id));
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Ref& a, const Ref& b) { return a.t < b.t; });
  s.run();
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].tag) << "at index " << i;
  }
  EXPECT_EQ(s.events_cancelled(), cancellable.size());
}

// Horizon boundaries of the event queue's levels: a 2^14 ns fine window,
// a 2^28 ns coarse window, and the overflow heap beyond.
constexpr Time kFineSpan = Time{1} << 14;
constexpr Time kCoarseSpan = Time{1} << 28;
constexpr Time kFarSpan = 4'000'000'000;

/// Randomized churn against a reference model: the set of pending
/// (time, schedule order) keys. Every event checks on firing that it is
/// the reference's minimum, then schedules follow-ups at random horizons
/// over all three queue levels and cancels a random handle (possibly one
/// that already fired, which must be rejected).
class ReferenceChurn {
 public:
  using Key = std::pair<Time, std::uint64_t>;

  ReferenceChurn(std::uint64_t seed, int budget)
      : rng_(seed), budget_(budget) {}

  Simulator& sim() { return s_; }
  Rng& rng() { return rng_; }
  const std::set<Key>& pending() const { return ref_; }
  int fired() const { return fired_; }
  int mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

  /// Uniform in [lo, hi).
  Time uniform(Time lo, Time hi) {
    return lo + static_cast<Time>(
                    rng_.next_below(static_cast<std::uint64_t>(hi - lo)));
  }

  /// A delay drawn uniformly from one of the three level ranges.
  Time horizon() {
    switch (rng_.next_below(3)) {
      case 0:
        return uniform(0, kFineSpan);
      case 1:
        return uniform(kFineSpan, kCoarseSpan);
      default:
        return uniform(kCoarseSpan, kFarSpan);
    }
  }

  /// Allow `budget` more schedules (a new cycle after a drain).
  void refill(int budget) { budget_ += budget; }
  /// Runs that ended on a dead tail (see leave_dead_tail).
  int dead_tails() const { return dead_tails_; }

  /// Schedule one event at `t` if the budget allows.
  void schedule(Time t) {
    if (budget_ <= 0) return;
    --budget_;
    const Key key{t, next_seq_++};
    ref_.insert(key);
    handles_.emplace_back(s_.schedule_at(t, [this, key] { fire(key); }), key);
  }

  /// Cancel a random handle; the queue must agree with the reference on
  /// whether it was still pending.
  void cancel_random() {
    if (handles_.empty()) return;
    const std::size_t i = rng_.next_below(handles_.size());
    const auto [id, key] = handles_[i];
    const bool pending = ref_.erase(key) == 1;
    if (s_.cancel(id) != pending) note_mismatch("cancel disagreed", key);
    handles_[i] = handles_.back();
    handles_.pop_back();
  }

 private:
  void fire(const Key& key) {
    ++fired_;
    if (ref_.empty() || *ref_.begin() != key || s_.now() != key.first) {
      note_mismatch("fired out of order", key);
    }
    ref_.erase(key);
    const int follow_ups = static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < follow_ups; ++i) schedule(s_.now() + horizon());
    if (rng_.next_below(4) == 0) cancel_random();
    if (ref_.empty()) leave_dead_tail();
  }

  /// The last event of a run schedules and cancels one event per level
  /// (fine, coarse, heap), so the queue drains with dead entries in both
  /// wheel levels. The coarse one lands in the heap instead when now()
  /// sits in the coarse window's last 2 * kFineSpan ns.
  void leave_dead_tail() {
    ++dead_tails_;
    for (Time dt : {Time{0}, 2 * kFineSpan, 2 * kCoarseSpan}) {
      s_.cancel(s_.schedule_at(s_.now() + dt, [] {}));
    }
  }

  void note_mismatch(const char* what, const Key& key) {
    if (mismatches_++ == 0) {
      first_mismatch_ = std::string(what) +
                        " at t=" + std::to_string(key.first) +
                        " seq=" + std::to_string(key.second) +
                        " now=" + std::to_string(s_.now());
    }
  }

  Simulator s_;
  Rng rng_;
  int budget_;
  std::uint64_t next_seq_ = 0;
  std::set<Key> ref_;
  std::vector<std::pair<EventId, Key>> handles_;
  int fired_ = 0;
  int dead_tails_ = 0;
  int mismatches_ = 0;
  std::string first_mismatch_;
};

TEST(Simulator, ChurnAcrossAllHorizonsMatchesReference) {
  // Seeds a mix of fine, coarse and overflow events, cancels some before
  // the run, then lets handlers reschedule and cancel at random horizons.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ReferenceChurn c(seed, 30'000);
    for (int i = 0; i < 2'000; ++i) c.schedule(c.horizon());
    for (int i = 0; i < 200; ++i) c.cancel_random();
    c.sim().run();
    EXPECT_EQ(c.mismatches(), 0)
        << "seed " << seed << ": " << c.first_mismatch();
    EXPECT_TRUE(c.pending().empty());
    EXPECT_TRUE(c.sim().idle());
    EXPECT_GT(c.fired(), 20'000) << "seed " << seed;
  }
}

TEST(Simulator, MidBucketDeadlinesThenNearSchedulesMatchReference) {
  // The same churn driven by run_until deadlines that land strictly inside
  // a 2^14 ns coarse bucket. After each stop, events are scheduled in
  // [deadline, next bucket start): times the queue has already passed over
  // in its scan for the next event must still fire first.
  for (std::uint64_t seed : {4u, 5u, 6u}) {
    ReferenceChurn c(seed, 20'000);
    for (int i = 0; i < 1'000; ++i) c.schedule(c.horizon());
    int stops = 0;
    while (!c.sim().idle()) {
      // Short steps (under 16 us or under 33 ms) so the run stops often
      // while all three levels hold events.
      Time deadline = c.sim().now() + (c.rng().next_below(2) == 0
                                           ? c.uniform(1, 4 * kFineSpan)
                                           : c.uniform(1, kCoarseSpan / 8));
      if ((deadline & (kFineSpan - 1)) == 0) ++deadline;
      c.sim().run_until(deadline);
      ++stops;
      ASSERT_EQ(c.sim().now(), deadline) << "seed " << seed;
      if (!c.pending().empty()) {
        ASSERT_GT(c.pending().begin()->first, deadline) << "seed " << seed;
      }
      const Time bucket_end = (deadline | (kFineSpan - 1)) + 1;
      c.schedule(deadline);
      c.schedule(bucket_end - 1);
      const int extra = static_cast<int>(c.rng().next_below(4));
      for (int i = 0; i < extra; ++i) {
        c.schedule(c.uniform(deadline, bucket_end));
      }
      if (c.rng().next_below(2) == 0) c.cancel_random();
    }
    EXPECT_EQ(c.mismatches(), 0)
        << "seed " << seed << ": " << c.first_mismatch();
    EXPECT_TRUE(c.pending().empty());
    EXPECT_GT(stops, 1'000) << "seed " << seed;
    EXPECT_GT(c.fired(), 10'000) << "seed " << seed;
  }
}

/// The slot an id names (EventId: low 32 bits hold slot + 1).
std::uint32_t slot_of(EventId id) { return static_cast<std::uint32_t>(id) - 1; }

TEST(Simulator, DrainedQueueRestartsCompact) {
  // A run that schedules, cancels and fires events on the fine level, the
  // coarse level and the heap, and drains with dead entries left in both
  // wheel levels: its last event schedules and cancels one event per
  // level past itself.
  Simulator s;
  int fired = 0;
  std::vector<EventId> ids;
  for (Time i = 0; i < 64; ++i) {
    ids.push_back(s.schedule_at(10 + i, [&] { ++fired; }));
    ids.push_back(s.schedule_at((2 + i) * kFineSpan, [&] { ++fired; }));
    ids.push_back(s.schedule_at(2 * kCoarseSpan + i, [&] { ++fired; }));
  }
  // Every 4th id: fine, coarse and heap events in turn.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 4, ++cancelled) {
    EXPECT_TRUE(s.cancel(ids[i]));
  }
  s.schedule_at(3 * kCoarseSpan, [&] {
    ++fired;
    for (Time dt : {Time{5}, 3 * kFineSpan, 2 * kCoarseSpan}) {
      EXPECT_TRUE(s.cancel(s.schedule_after(dt, [&] { ++fired; })));
    }
  });
  s.run();
  EXPECT_EQ(fired, 3 * 64 - cancelled + 1);
  EXPECT_TRUE(s.idle());
  // The drain dropped every dead entry: no later cascade can visit one.
  EXPECT_EQ(s.wheel_entries(), 0u);

  // A burst takes slots 0..k-1 in schedule order, over both wheel levels.
  const Time base = s.now();
  std::vector<int> order;
  constexpr int kBurst = 100;
  for (int i = 0; i < kBurst; ++i) {
    const Time t = base + (i % 2 == 0 ? 7 : 5 * kFineSpan);
    const EventId id = s.schedule_at(t, [&order, i] { order.push_back(i); });
    EXPECT_EQ(slot_of(id), static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(s.wheel_entries(), static_cast<std::size_t>(kBurst));
  s.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kBurst));
  for (int i = 0; i < kBurst / 2; ++i) {
    EXPECT_EQ(order[i], 2 * i);
    EXPECT_EQ(order[kBurst / 2 + i], 2 * i + 1);
  }
  EXPECT_EQ(s.wheel_entries(), 0u);
}

TEST(Simulator, StaleIdsStayDeadAcrossDrain) {
  // Ids from before a drain, cancelled or fired, name slots the reset hands
  // out again in index order; cancelling them must not touch the slots' new
  // events, on a wheel level or in the heap.
  Simulator s;
  const EventId cancelled_id = s.schedule_at(5, [] {});
  const EventId fired_id = s.schedule_at(6, [] {});
  EXPECT_TRUE(s.cancel(cancelled_id));
  s.run();

  int ran = 0;
  const EventId near = s.schedule_at(10, [&] { ++ran; });
  const EventId far = s.schedule_at(2 * kCoarseSpan, [&] { ++ran; });
  EXPECT_EQ(slot_of(near), slot_of(cancelled_id));
  EXPECT_EQ(slot_of(far), slot_of(fired_id));
  EXPECT_FALSE(s.cancel(cancelled_id));
  EXPECT_FALSE(s.cancel(fired_id));
  EXPECT_FALSE(s.idle());
  s.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.events_cancelled(), 1u);
}

TEST(Simulator, ChurnAcrossDrainsMatchesReference) {
  // One simulator through six drain-refill cycles. Every run ends on a
  // dead tail, so each drain resets storage that holds dead entries, and
  // cancel_random keeps drawing ids from earlier cycles, which must stay
  // dead after their slots are reused.
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    ReferenceChurn c(seed, 0);
    constexpr int kCycles = 6;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      c.refill(6'000);
      for (int i = 0; i < 500; ++i) c.schedule(c.sim().now() + c.horizon());
      for (int i = 0; i < 50; ++i) c.cancel_random();
      c.sim().run();
      ASSERT_TRUE(c.pending().empty()) << "seed " << seed;
      EXPECT_TRUE(c.sim().idle());
      EXPECT_EQ(c.sim().wheel_entries(), 0u)
          << "seed " << seed << " cycle " << cycle;
    }
    EXPECT_EQ(c.mismatches(), 0)
        << "seed " << seed << ": " << c.first_mismatch();
    EXPECT_EQ(c.dead_tails(), kCycles) << "seed " << seed;
    EXPECT_GT(c.fired(), 5 * 5'000) << "seed " << seed;
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowInRange) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r(11);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += r.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double x = r.next_normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, ForkIndependence) {
  Rng a(5);
  Rng c = a.fork();
  EXPECT_NE(a.next_u64(), c.next_u64());
}

}  // namespace
}  // namespace omr::sim
