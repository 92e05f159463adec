#include "netsim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace qv::netsim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, [&] { order.push_back(1); });
  q.schedule(5, [&] { order.push_back(2); });
  q.schedule(5, [&] { order.push_back(3); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NextTimePeeks) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeMax);
  q.schedule(42, [] {});
  EXPECT_EQ(q.next_time(), 42);
  q.run_next();
  EXPECT_EQ(q.next_time(), kTimeMax);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(10, [&] { ran = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeMax);
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] { order.push_back(1); });
  const EventId id = q.schedule(2, [&] { order.push_back(2); });
  q.schedule(3, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelUnknownIdIsNoOp) {
  EventQueue q;
  q.schedule(1, [] {});
  q.cancel(9999);  // never issued
  q.cancel(0);     // invalid
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, RunNextReturnsTimestamp) {
  EventQueue q;
  q.schedule(17, [] {});
  EXPECT_EQ(q.run_next(), 17);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&] {
    order.push_back(1);
    q.schedule(5, [&] { order.push_back(99); });  // in the past of head? no: absolute 5 < 10 but already popped
    q.schedule(20, [&] { order.push_back(2); });
  });
  while (!q.empty()) q.run_next();
  // The t=5 event runs immediately after (queue is purely ordered by time).
  EXPECT_EQ(order, (std::vector<int>{1, 99, 2}));
}

// Regression (ISSUE 1 satellite): cancelling an id whose event already
// ran used to decrement the live count (any 0 < id < next_id_ was
// accepted), corrupting size()/empty(). Generation-stamped slots make
// the stale id a true no-op.
TEST(EventQueue, CancelAfterRunIsANoOp) {
  EventQueue q;
  const EventId ran = q.schedule(1, [] {});
  q.schedule(2, [] {});
  q.run_next();  // `ran` fires
  EXPECT_EQ(q.size(), 1u);
  q.cancel(ran);  // stale id: must not touch the remaining event
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), 2);
  EXPECT_EQ(q.run_next(), 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelIsANoOp) {
  EventQueue q;
  const EventId id = q.schedule(5, [] {});
  q.schedule(6, [] {});
  q.cancel(id);
  q.cancel(id);  // second cancel of the same id
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_next(), 6);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  bool second_ran = false;
  const EventId first = q.schedule(1, [] {});
  q.run_next();  // frees the slot
  // The next schedule recycles the slot under a new generation.
  q.schedule(2, [&] { second_ran = true; });
  q.cancel(first);  // stale id pointing at the recycled slot
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_TRUE(second_ran);
}

TEST(EventQueue, CancelFromInsideARunningEvent) {
  EventQueue q;
  std::vector<int> order;
  EventId doomed = 0;
  q.schedule(1, [&] {
    order.push_back(1);
    q.cancel(doomed);
  });
  doomed = q.schedule(2, [&] { order.push_back(2); });
  q.schedule(3, [&] { order.push_back(3); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, LargeCapturesStillWork) {
  // Callables beyond EventFn's inline buffer take the heap fallback.
  EventQueue q;
  std::array<std::uint64_t, 64> big{};
  big[0] = 7;
  big[63] = 9;
  std::uint64_t sum = 0;
  q.schedule(1, [big, &sum] { sum = big[0] + big[63]; });
  q.run_next();
  EXPECT_EQ(sum, 16u);
}

TEST(EventQueue, ManyEventsRandomOrderRunSorted) {
  EventQueue q;
  std::vector<TimeNs> fired;
  // Deterministic pseudo-random times with duplicates: exercises the
  // 4-ary heap beyond trivial sizes.
  std::uint64_t x = 88172645463325252ull;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const TimeNs at = static_cast<TimeNs>(x % 97);
    ids.push_back(q.schedule(at, [&fired, at] { fired.push_back(at); }));
  }
  // Cancel a deterministic third of them.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    q.cancel(ids[i]);
    ++cancelled;
  }
  EXPECT_EQ(q.size(), ids.size() - cancelled);
  TimeNs prev = 0;
  while (!q.empty()) {
    const TimeNs at = q.run_next();
    EXPECT_GE(at, prev);
    prev = at;
  }
  EXPECT_EQ(fired.size(), ids.size() - cancelled);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FarFutureEventsOverflowToHeapThenMigrate) {
  EventQueue q;
  std::vector<int> order;
  // Beyond the level-0 + level-1 window: parks in the overflow heap.
  q.schedule(seconds(2), [&] { order.push_back(2); });
  q.schedule(0, [&] { order.push_back(0); });
  q.schedule(seconds(1), [&] { order.push_back(1); });
  EXPECT_GT(q.overflow_heap_size(), 0u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_GT(q.wheel_stats().scheduled_heap, 0u);
  EXPECT_GT(q.wheel_stats().migrated_from_heap, 0u);
}

TEST(EventQueue, HeapOnlyModeOrdersIdentically) {
  // The per-event reference engine bypasses the wheel entirely; the
  // observable contract — strict (at, seq) order, FIFO ties — must be
  // the same in both layouts.
  for (const bool heap_only : {false, true}) {
    SCOPED_TRACE(heap_only ? "heap-only" : "wheel");
    EventQueue q;
    q.set_heap_only(heap_only);
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(2); });  // tie: insertion order
    q.schedule(seconds(5), [&] { order.push_back(4); });  // far future
    while (!q.empty()) q.run_next();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  }
}

TEST(EventQueue, HeapOnlyRoutesNothingThroughTheWheel) {
  EventQueue q;
  q.set_heap_only(true);
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.wheel_stats().scheduled_wheel, 0u);
  EXPECT_EQ(q.overflow_heap_size(), 2u);
  while (!q.empty()) q.run_next();
}

TEST(EventQueue, ReservedSeqPreservesTieBreakOrder) {
  // A sequence number reserved EARLY but scheduled LATE must still win
  // the tie against everything scheduled after the reservation — this
  // is what lets the coalesced drain re-schedule its reference-twin
  // events without perturbing order.
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t early = q.reserve_seq();
  q.schedule(5, [&] { order.push_back(2); });
  q.schedule(5, [&] { order.push_back(3); });
  q.schedule_at_seq(5, early, [&] { order.push_back(1); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PersistentTimerFiresAndSurvives) {
  EventQueue q;
  int fired = 0;
  const EventId t = q.make_timer(
      [](void* ctx) { ++*static_cast<int*>(ctx); }, &fired);
  EXPECT_TRUE(q.empty());  // unarmed timers are not live events
  q.arm_timer(t, 10, q.reserve_seq());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 10);
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  // The slot survives firing: re-arm without a fresh make_timer.
  q.arm_timer(t, 25, q.reserve_seq());
  EXPECT_EQ(q.run_next(), 25);
  EXPECT_EQ(fired, 2);
  q.destroy_timer(t);
}

TEST(EventQueue, TimerOrdersAgainstRegularEvents) {
  EventQueue q;
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
  } ctx{&order};
  const EventId t = q.make_timer(
      [](void* c) { static_cast<Ctx*>(c)->order->push_back(2); }, &ctx);
  q.schedule(5, [&] { order.push_back(1); });
  q.arm_timer(t, 5, q.reserve_seq());  // same time, later seq: after
  q.schedule(5, [&] { order.push_back(3); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  q.destroy_timer(t);
}

TEST(EventQueue, DisarmTimerPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId t = q.make_timer(
      [](void* ctx) { ++*static_cast<int*>(ctx); }, &fired);
  q.arm_timer(t, 10, q.reserve_seq());
  q.disarm_timer(t);
  EXPECT_TRUE(q.empty());
  q.disarm_timer(t);  // disarming an unarmed timer is a no-op
  // Re-arm after disarm works; far-future arm exercises the heap path.
  q.arm_timer(t, seconds(3), q.reserve_seq());
  EXPECT_EQ(q.run_next(), seconds(3));
  EXPECT_EQ(fired, 1);
  q.destroy_timer(t);
}

TEST(EventQueue, DestroyedTimerSlotRecyclesAsRegularEvent) {
  // destroy_timer must scrub the POD callback before the slot returns
  // to the free list, or a recycled slot would be misread as a timer.
  EventQueue q;
  int fired = 0;
  const EventId t = q.make_timer(
      [](void* ctx) { *static_cast<int*>(ctx) += 100; }, &fired);
  q.arm_timer(t, 10, q.reserve_seq());
  q.destroy_timer(t);  // destroys while armed: disarm + free
  EXPECT_TRUE(q.empty());
  bool ran = false;
  q.schedule(1, [&] { ran = true; });  // recycles the slot
  q.run_next();
  EXPECT_TRUE(ran);
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, TimersWorkInHeapOnlyMode) {
  EventQueue q;
  q.set_heap_only(true);
  int fired = 0;
  const EventId t = q.make_timer(
      [](void* ctx) { ++*static_cast<int*>(ctx); }, &fired);
  q.arm_timer(t, 7, q.reserve_seq());
  EXPECT_EQ(q.run_next(), 7);
  EXPECT_EQ(fired, 1);
  q.arm_timer(t, 9, q.reserve_seq());
  q.destroy_timer(t);  // destroy while armed
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TimerCallbackMayGrowTheSlab) {
  // The callback is copied out of the slot before the call, so a
  // handler that schedules enough to reallocate the slab is safe.
  EventQueue q;
  struct Ctx {
    EventQueue* q;
    int scheduled = 0;
  } ctx{&q};
  const EventId t = q.make_timer(
      [](void* c) {
        auto* ctx = static_cast<Ctx*>(c);
        for (int i = 0; i < 256; ++i) {
          ctx->q->schedule(100 + i, [ctx] { ++ctx->scheduled; });
        }
      },
      &ctx);
  q.arm_timer(t, 1, q.reserve_seq());
  while (!q.empty()) q.run_next();
  EXPECT_EQ(ctx.scheduled, 256);
  q.destroy_timer(t);
}

// --- randomized wheel-vs-heap differential --------------------------------

/// One queue layout driven by a seeded op stream. Every decision comes
/// from the harness's own Rng and from a layout-independent model of the
/// live events, so two layouts that dispatch identically see identical
/// streams and the first divergence shows up in the dispatch log. The
/// model is an ordered map keyed by (at, seq): a dispatch must always
/// pop its first entry.
class DiffHarness {
 public:
  struct Coverage {
    int cancels[3] = {0, 0, 0};  ///< head / middle / tail of a >=3 bucket
    int past = 0;                ///< events scheduled behind the clock
    int reserved = 0;            ///< schedule_at_seq / arm with an old seq
    int far = 0;                 ///< beyond the level-0 window
  };

  DiffHarness(bool heap_only, std::uint64_t seed) : rng_(seed) {
    q_.set_heap_only(heap_only);
    for (Timer& t : timers_) {
      t.owner = this;
      t.id = q_.make_timer(&DiffHarness::fire_timer, &t);
    }
  }
  ~DiffHarness() {
    for (Timer& t : timers_) q_.destroy_timer(t.id);
  }

  std::vector<std::uint64_t> run(int ops) {
    for (int i = 0; i < ops; ++i) {
      step();
      EXPECT_EQ(q_.size(), model_.size());
    }
    while (!q_.empty()) q_.run_next();
    EXPECT_TRUE(model_.empty());
    return log_;
  }
  const Coverage& coverage() const { return cov_; }

 private:
  using Key = std::pair<TimeNs, std::uint64_t>;
  struct Live {
    std::uint64_t label;
    EventId id;
    int timer;  ///< index into timers_, -1 for a regular event
  };
  struct Timer {
    DiffHarness* owner = nullptr;
    EventId id = 0;
    Key key{};
    bool armed = false;
  };

  std::uint64_t below(std::uint64_t n) { return rng_.next_below(n); }

  void step() {
    switch (below(10)) {
      case 0:
      case 1:  // exact-time ties on a 1 us lattice
        schedule((now_ / 1000 + static_cast<TimeNs>(below(17))) * 1000);
        break;
      case 2:  // sub-tick spread inside one or two 128 ns buckets
        schedule(now_ + static_cast<TimeNs>(below(128)));
        break;
      case 3:
        for (std::uint64_t n = 1 + below(3); n > 0; --n) {
          reserved_.push_back(q_.reserve_seq());
          ++seq_;
        }
        break;
      case 4:
        if (!reserved_.empty()) {
          const TimeNs at = (now_ / 1000 + static_cast<TimeNs>(below(5))) *
                            1000;
          const std::uint64_t seq = take_reserved();
          const std::uint64_t label = next_label_++;
          const EventId id =
              q_.schedule_at_seq(at, seq, [this, label] { fire(label); });
          model_.emplace(Key{at, seq}, Live{label, id, -1});
          ++cov_.reserved;
        }
        break;
      case 5:
        arm_some_timer();
        break;
      case 6:
        cancel_in_bucket();
        break;
      case 7:  // level 1 (~1-67 ms out) or the overflow heap (seconds)
        ++cov_.far;
        schedule(now_ + (below(2) == 0
                             ? milliseconds(2 + static_cast<TimeNs>(below(60)))
                             : seconds(1 + static_cast<TimeNs>(below(4)))));
        break;
      default:
        for (std::uint64_t n = 1 + below(6); n > 0 && !q_.empty(); --n) {
          q_.run_next();
        }
        break;
    }
  }

  void schedule(TimeNs at) {
    const std::uint64_t label = next_label_++;
    const EventId id = q_.schedule(at, [this, label] { fire(label); });
    model_.emplace(Key{at, seq_++}, Live{label, id, -1});
  }

  std::uint64_t take_reserved() {
    const std::size_t i = static_cast<std::size_t>(below(reserved_.size()));
    const std::uint64_t seq = reserved_[i];
    reserved_[i] = reserved_.back();
    reserved_.pop_back();
    return seq;
  }

  void arm_some_timer() {
    Timer& t = timers_[static_cast<std::size_t>(below(timers_.size()))];
    if (t.armed) return;
    std::uint64_t seq;
    if (!reserved_.empty() && below(2) == 0) {
      seq = take_reserved();
      ++cov_.reserved;
    } else {
      seq = q_.reserve_seq();
      ++seq_;
    }
    const TimeNs at = now_ + static_cast<TimeNs>(below(3000));
    q_.arm_timer(t.id, at, seq);
    t.key = Key{at, seq};
    t.armed = true;
    model_.emplace(t.key, Live{next_label_++, t.id,
                               static_cast<int>(&t - timers_.data())});
  }

  /// Cancel (or disarm) the head, a middle entry or the tail of the
  /// 128 ns bucket that a random live event sits in.
  void cancel_in_bucket() {
    if (model_.empty()) return;
    auto pick = std::next(model_.begin(),
                          static_cast<std::ptrdiff_t>(below(model_.size())));
    const TimeNs tick = pick->first.first >> 7;
    const auto first = model_.lower_bound(Key{tick << 7, 0});
    const auto last = model_.lower_bound(Key{(tick + 1) << 7, 0});
    const auto n = std::distance(first, last);
    const std::uint64_t where = below(3);
    auto victim = std::next(first, where == 0   ? 0
                                   : where == 1 ? n / 2
                                                : n - 1);
    if (n >= 3) ++cov_.cancels[where];
    const Live live = victim->second;
    if (live.timer >= 0) {
      q_.disarm_timer(live.id);
      timers_[static_cast<std::size_t>(live.timer)].armed = false;
    } else {
      q_.cancel(live.id);
    }
    model_.erase(victim);
  }

  /// Dispatch bookkeeping shared by events and timers.
  void record(std::uint64_t label) {
    ASSERT_FALSE(model_.empty());
    EXPECT_EQ(model_.begin()->second.label, label);
    now_ = model_.begin()->first.first;
    model_.erase(model_.begin());
    log_.push_back(label);
  }

  void fire(std::uint64_t label) {
    record(label);
    // A quarter of the callbacks schedule behind the clock (heap
    // semantics: they run next) or exactly at it (FIFO tie).
    switch (below(8)) {
      case 0:
        ++cov_.past;
        schedule(now_ - 1 - static_cast<TimeNs>(below(3000)));
        break;
      case 1:
        schedule(now_);
        break;
      default:
        break;
    }
  }

  static void fire_timer(void* ctx) {
    Timer& t = *static_cast<Timer*>(ctx);
    DiffHarness& d = *t.owner;
    t.armed = false;
    d.record(d.model_.at(t.key).label);
  }

  EventQueue q_;
  Rng rng_;
  std::map<Key, Live> model_;
  std::array<Timer, 4> timers_;
  std::vector<std::uint64_t> reserved_;
  std::vector<std::uint64_t> log_;
  std::uint64_t seq_ = 0;  ///< mirrors the queue's next sequence number
  std::uint64_t next_label_ = 0;
  TimeNs now_ = 0;
  Coverage cov_;
};

TEST(EventQueue, WheelMatchesHeapOnlyOnRandomOpStreams) {
  for (const std::uint64_t seed : {1u, 2u, 7u, 42u, 1337u}) {
    SCOPED_TRACE(seed);
    DiffHarness wheel(false, seed);
    DiffHarness heap(true, seed);
    const std::vector<std::uint64_t> a = wheel.run(5000);
    const std::vector<std::uint64_t> b = heap.run(5000);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a, b);
    const DiffHarness::Coverage& cov = wheel.coverage();
    for (const int c : cov.cancels) EXPECT_GT(c, 0);
    EXPECT_GT(cov.past, 0);
    EXPECT_GT(cov.reserved, 0);
    EXPECT_GT(cov.far, 0);
  }
}

}  // namespace
}  // namespace qv::netsim
