// Micro-benchmarks for the discrete-event core. The simulator runs one
// event per packet hop, so schedule/run_next throughput bounds overall
// simulation speed; cancel throughput matters for retransmission
// timers (reliable_source.hpp cancels one timer per delivered ack).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "netsim/event.hpp"
#include "netsim/packet.hpp"
#include "util/random.hpp"

namespace {

using namespace qv;
using namespace qv::netsim;

/// The seed implementation, reproduced verbatim from the pre-refactor
/// EventQueue: a std::priority_queue of std::function entries with a
/// lazily-skimmed cancelled-id hash set. Kept here as the "before"
/// side of BENCH_hotpath.json so both sides run under the identical
/// harness.
class LegacyHeapEventQueue {
 public:
  using Fn = std::function<void()>;

  EventId schedule(TimeNs at, Fn fn) {
    const EventId id = next_id_++;
    heap_.push(Entry{at, id, std::move(fn)});
    ++live_;
    return id;
  }

  void cancel(EventId id) {
    if (id == 0 || id >= next_id_) return;
    if (cancelled_.insert(id).second && live_ > 0) --live_;
  }

  TimeNs run_next() {
    skim();
    const TimeNs at = heap_.top().at;
    Fn fn = std::move(heap_.top().fn);
    heap_.pop();
    --live_;
    fn();
    return at;
  }

 private:
  struct Entry {
    TimeNs at;
    EventId id;
    mutable Fn fn;

    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };

  void skim() {
    while (!heap_.empty()) {
      auto it = cancelled_.find(heap_.top().id);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_set<EventId> cancelled_;
  std::uint64_t next_id_ = 1;
  std::size_t live_ = 0;
};

/// Steady-state churn at depth ~`depth`: run one event, schedule one.
/// Templated over the queue so the current and legacy implementations
/// run under the identical harness.
template <class Queue>
void run_schedule_run(benchmark::State& state) {
  Queue q;
  Rng rng(3);
  const int depth = static_cast<int>(state.range(0));
  TimeNs now = 0;
  std::uint64_t sink = 0;
  for (int i = 0; i < depth; ++i) {
    q.schedule(static_cast<TimeNs>(rng.next_below(1000)),
               [&sink] { ++sink; });
  }
  std::int64_t ops = 0;
  for (auto _ : state) {
    now = q.run_next();
    q.schedule(now + 1 + static_cast<TimeNs>(rng.next_below(1000)),
               [&sink] { ++sink; });
    ops += 2;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(ops);
}

void BM_EventScheduleRun(benchmark::State& state) {
  run_schedule_run<EventQueue>(state);
}
BENCHMARK(BM_EventScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

void BM_LegacyEventScheduleRun(benchmark::State& state) {
  run_schedule_run<LegacyHeapEventQueue>(state);
}
BENCHMARK(BM_LegacyEventScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

/// The retransmission-timer pattern: schedule a timer, cancel it before
/// it fires (plus a baseline event churn to keep the heap busy).
template <class Queue>
void run_schedule_cancel(benchmark::State& state) {
  Queue q;
  Rng rng(5);
  TimeNs now = 1;
  std::int64_t ops = 0;
  for (auto _ : state) {
    const EventId timer =
        q.schedule(now + 1000 + static_cast<TimeNs>(rng.next_below(1000)),
                   [] {});
    q.schedule(now + static_cast<TimeNs>(rng.next_below(100)), [] {});
    now = q.run_next();
    q.cancel(timer);
    ops += 3;
  }
  state.SetItemsProcessed(ops);
}

void BM_EventScheduleCancel(benchmark::State& state) {
  run_schedule_cancel<EventQueue>(state);
}
BENCHMARK(BM_EventScheduleCancel);

void BM_LegacyEventScheduleCancel(benchmark::State& state) {
  run_schedule_cancel<LegacyHeapEventQueue>(state);
}
BENCHMARK(BM_LegacyEventScheduleCancel);

/// Packet-sized captures: the payload every Link callback carries.
template <class Queue>
void run_packet_capture(benchmark::State& state) {
  Queue q;
  Packet pkt;
  pkt.size_bytes = 1500;
  std::int64_t sink = 0;
  std::int64_t ops = 0;
  for (auto _ : state) {
    q.schedule(static_cast<TimeNs>(ops),
               [pkt, &sink] { sink += pkt.size_bytes; });
    q.run_next();
    ops += 2;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(ops);
}

void BM_EventPacketCapture(benchmark::State& state) {
  run_packet_capture<EventQueue>(state);
}
BENCHMARK(BM_EventPacketCapture);

void BM_LegacyEventPacketCapture(benchmark::State& state) {
  run_packet_capture<LegacyHeapEventQueue>(state);
}
BENCHMARK(BM_LegacyEventPacketCapture);

/// The per-event reference engine's queue layout: the CURRENT
/// EventQueue with the timing wheel bypassed (everything routed
/// through the overflow heap). Unlike LegacyHeapEventQueue above this
/// shares slot storage, EventFn, and cancel semantics with the wheel
/// path, so wheel-vs-heap-only pairs isolate the ORDERING structure —
/// exactly the split run_benchmarks.py --simcore reports.
struct HeapOnlyEventQueue : EventQueue {
  HeapOnlyEventQueue() { set_heap_only(true); }
};

void BM_HeapOnlyEventScheduleRun(benchmark::State& state) {
  run_schedule_run<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventScheduleRun)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HeapOnlyEventScheduleCancel(benchmark::State& state) {
  run_schedule_cancel<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventScheduleCancel);

// --- adversarial distributions --------------------------------------
//
// In the steady-state churn above every delay lands in the level-0
// window, packed into a few buckets (the sorted insert's worst case at
// depth). These distributions attack the wheel's other weak spots —
// far-future overflow, cancel-heavy churn, and a pure drain with no
// interleaved schedules (bucket bookkeeping with nothing amortizing
// it). Each runs on the wheel, the heap-only layout, and the legacy
// seed queue under the identical harness.

/// Bimodal horizons at depth `depth`: 7 of 8 events are near (within
/// the level-0 window), 1 of 8 is far (~50 ms ahead — parks in the
/// overflow heap or level 1 and must migrate down before firing).
template <class Queue>
void run_bimodal_horizon(benchmark::State& state) {
  Queue q;
  Rng rng(7);
  const int depth = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  auto delay = [&rng]() -> TimeNs {
    return rng.next_below(8) == 0
               ? 50'000'000 + static_cast<TimeNs>(rng.next_below(1'000'000))
               : 1 + static_cast<TimeNs>(rng.next_below(100'000));
  };
  TimeNs now = 0;
  for (int i = 0; i < depth; ++i) {
    q.schedule(delay(), [&sink] { ++sink; });
  }
  std::int64_t ops = 0;
  for (auto _ : state) {
    now = q.run_next();
    q.schedule(now + delay(), [&sink] { ++sink; });
    ops += 2;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(ops);
}

void BM_EventBimodalHorizon(benchmark::State& state) {
  run_bimodal_horizon<EventQueue>(state);
}
BENCHMARK(BM_EventBimodalHorizon)->Arg(1024)->Arg(16384);

void BM_HeapOnlyEventBimodalHorizon(benchmark::State& state) {
  run_bimodal_horizon<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventBimodalHorizon)->Arg(1024)->Arg(16384);

void BM_LegacyEventBimodalHorizon(benchmark::State& state) {
  run_bimodal_horizon<LegacyHeapEventQueue>(state);
}
BENCHMARK(BM_LegacyEventBimodalHorizon)->Arg(1024)->Arg(16384);

/// Cancel-heavy churn: schedule four timers, cancel three before they
/// fire, run one — the retransmission pattern at its worst (75% of
/// scheduled work is wasted and must be unlinked, not skimmed).
template <class Queue>
void run_cancel_heavy(benchmark::State& state) {
  Queue q;
  Rng rng(11);
  TimeNs now = 1;
  std::int64_t ops = 0;
  for (auto _ : state) {
    EventId doomed[3];
    for (auto& id : doomed) {
      id = q.schedule(now + 500 + static_cast<TimeNs>(rng.next_below(2000)),
                      [] {});
    }
    q.schedule(now + static_cast<TimeNs>(rng.next_below(200)), [] {});
    now = q.run_next();
    for (const auto id : doomed) q.cancel(id);
    ops += 8;
  }
  state.SetItemsProcessed(ops);
}

void BM_EventCancelHeavy(benchmark::State& state) {
  run_cancel_heavy<EventQueue>(state);
}
BENCHMARK(BM_EventCancelHeavy);

void BM_HeapOnlyEventCancelHeavy(benchmark::State& state) {
  run_cancel_heavy<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventCancelHeavy);

void BM_LegacyEventCancelHeavy(benchmark::State& state) {
  run_cancel_heavy<LegacyHeapEventQueue>(state);
}
BENCHMARK(BM_LegacyEventCancelHeavy);

/// Monotone drain: fill `n` events in random rank order, then drain
/// the queue dry with no interleaved schedules. This is the coalesced
/// link drain's access pattern (pop, pop, pop...): every pop unlinks a
/// bucket head and most empty a bucket, so the bitmap search for the
/// next occupied one runs with no insertion to amortize it.
template <class Queue>
void run_monotone_drain(benchmark::State& state) {
  Rng rng(13);
  const int n = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  std::int64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Queue q;
    for (int i = 0; i < n; ++i) {
      q.schedule(static_cast<TimeNs>(rng.next_below(1'000'000)),
                 [&sink] { ++sink; });
    }
    state.ResumeTiming();
    for (int i = 0; i < n; ++i) q.run_next();
    ops += n;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(ops);
}

void BM_EventMonotoneDrain(benchmark::State& state) {
  run_monotone_drain<EventQueue>(state);
}
BENCHMARK(BM_EventMonotoneDrain)->Arg(4096);

void BM_HeapOnlyEventMonotoneDrain(benchmark::State& state) {
  run_monotone_drain<HeapOnlyEventQueue>(state);
}
BENCHMARK(BM_HeapOnlyEventMonotoneDrain)->Arg(4096);

void BM_LegacyEventMonotoneDrain(benchmark::State& state) {
  run_monotone_drain<LegacyHeapEventQueue>(state);
}
BENCHMARK(BM_LegacyEventMonotoneDrain)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
