// Differential determinism: the overhauled simulation core (timing
// wheel + coalesced link drain) must be observationally
// IDENTICAL to the per-event reference engine — same delivery
// timestamps, same order, same drop decisions, same event count — for
// every queueing discipline the simulator ships. Each test drives one
// discipline with the same adversarial traffic script (bursts, idle
// gaps, same-instant arrivals, buffer overflow, random loss and
// corruption, link flaps) under both Simulator::SimCore modes and
// compares the full delivery record.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "sched/aifo.hpp"
#include "sched/bucketed_pifo.hpp"
#include "sched/calendar_queue.hpp"
#include "sched/drr.hpp"
#include "sched/fifo.hpp"
#include "sched/pifo.hpp"
#include "sched/sp_pifo.hpp"
#include "sched/strict_priority.hpp"

namespace qv::netsim {
namespace {

// One delivered packet, fully identifying: when, what, how big.
using Delivery = std::tuple<TimeNs, FlowId, Rank, std::int32_t>;

struct RunRecord {
  std::vector<Delivery> deliveries;
  std::uint64_t events_processed = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t dropped_bytes = 0;
  std::int64_t bytes_transmitted = 0;
  double mean_queue_bytes = 0;
  double utilization = 0;
  LinkFaultCounters faults;
  std::size_t backlog_at_down = 0;  ///< buffered when the long flap began
  std::uint64_t scheduled_wheel = 0;
};

// Deterministic splitmix-style generator so both engine runs see the
// exact same traffic without depending on <random> distributions.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

Packet make_packet(Rng& rng) {
  Packet p;
  p.flow = 1 + rng.below(8);
  p.size_bytes = 200 + static_cast<std::int32_t>(rng.below(1301));
  p.rank = static_cast<Rank>(rng.below(256));
  p.original_rank = p.rank;
  return p;
}

// The shared traffic script: ~50 arrival instants mixing single
// packets, multi-packet bursts through transmit_burst, zero-gap
// same-instant arrivals, and long idle stretches that let the wire
// drain completely (exercising the work-conserving restart in both
// engines). A tight buffer forces overflow drops mid-script so the
// drop policy of every discipline is part of the comparison.
//
// Fault paths ride along: a per-packet loss and corruption probability
// for the random phase, and two flaps. Each flap goes down with one
// packet mid-serialization and its predecessor still on the wire (both
// epoch-dropped), then comes back up with packets still buffered.
//
// The long flap lands inside a random-phase backlog (the window was
// picked so it holds for every discipline) and rejects the offers that
// arrive while it is down. The short flap is a fixed scene once the
// random phase has drained, loss off: a same-rank burst of one 200 B,
// one 1500 B and six 200 B packets. The link goes down 2 us in, while
// the 1500 B packet serializes and the first one propagates, and comes
// back up at 4 us, after the stale arrival but 9.6 us before the stale
// serialization finish. The restarted chain's first finish is earlier
// than that, so the drain timer is re-pointed.
constexpr TimeNs kLongFlapDown = 420'500;
constexpr TimeNs kLongFlapUp = kLongFlapDown + microseconds(30);
constexpr TimeNs kShortFlapScene = microseconds(1500);

RunRecord run_script(std::unique_ptr<sched::Scheduler> queue,
                     Simulator::SimCore mode) {
  Simulator sim;
  sim.set_simcore(mode);
  RunRecord rec;
  Link link(sim, gbps(1), microseconds(2), std::move(queue),
            [&](std::span<const Packet> batch) {
              for (const Packet& p : batch) {
                rec.deliveries.emplace_back(sim.now(), p.flow, p.rank,
                                            p.size_bytes);
              }
            });

  link.set_fault_seed(6);
  link.set_loss(0.03, 0.03);
  sim.at(kLongFlapDown, [&] {
    rec.backlog_at_down = link.queue().size();
    link.set_up(false);
  });
  sim.at(kLongFlapUp, [&link] { link.set_up(true); });
  sim.at(kShortFlapScene, [&link] {
    link.set_loss(0.0, 0.0);
    std::vector<Packet> burst;
    for (const std::int32_t size :
         {200, 1500, 200, 200, 200, 200, 200, 200}) {
      Packet p;
      p.flow = 9;
      p.size_bytes = size;
      p.rank = 7;
      p.original_rank = p.rank;
      burst.push_back(p);
    }
    link.transmit_burst(std::span<Packet>(burst));
  });
  sim.at(kShortFlapScene + microseconds(2), [&link] { link.set_up(false); });
  sim.at(kShortFlapScene + microseconds(4), [&link] { link.set_up(true); });

  Rng rng{0x5eed0f00dull};
  TimeNs at = 0;
  for (int step = 0; step < 50; ++step) {
    // Gap pattern: mostly sub-serialization gaps (queue builds up),
    // occasionally zero (same-instant arrivals), occasionally a long
    // idle period (queue drains to empty).
    const std::uint64_t kind = rng.below(10);
    if (kind == 0) {
      at += microseconds(200);  // idle: drains ~16 x 1500 B at 1 Gbps
    } else if (kind <= 2) {
      /* zero gap: arrive at the same instant as the previous step */
    } else {
      at += nanoseconds(500 + rng.below(8000));
    }
    if (rng.below(3) == 0) {
      std::vector<Packet> burst;
      const std::uint64_t n = 2 + rng.below(4);
      for (std::uint64_t i = 0; i < n; ++i) burst.push_back(make_packet(rng));
      sim.at(at, [&link, burst]() mutable {
        link.transmit_burst(std::span<Packet>(burst));
      });
    } else {
      const Packet p = make_packet(rng);
      sim.at(at, [&link, p] { link.transmit(p); });
    }
  }
  sim.run();

  rec.events_processed = sim.events_processed();
  const sched::SchedulerCounters& c = link.queue().counters();
  rec.enqueued = c.enqueued;
  rec.dequeued = c.dequeued;
  rec.dropped = c.dropped;
  rec.dropped_bytes = c.dropped_bytes;
  rec.bytes_transmitted = link.bytes_transmitted();
  rec.mean_queue_bytes = link.mean_queue_bytes(sim.now());
  rec.utilization = link.utilization(sim.now());
  rec.faults = link.fault_counters();
  rec.scheduled_wheel = sim.wheel_stats().scheduled_wheel;
  return rec;
}

// Run both engines over the same scheduler-factory and compare
// everything observable. The factory runs twice so each engine gets a
// fresh, identical discipline instance.
void expect_engines_identical(
    const std::function<std::unique_ptr<sched::Scheduler>()>& make_queue) {
  const RunRecord over =
      run_script(make_queue(), Simulator::SimCore::kOverhauled);
  const RunRecord ref =
      run_script(make_queue(), Simulator::SimCore::kPerEventReference);

  ASSERT_EQ(over.deliveries.size(), ref.deliveries.size());
  for (std::size_t i = 0; i < over.deliveries.size(); ++i) {
    EXPECT_EQ(over.deliveries[i], ref.deliveries[i]) << "delivery " << i;
  }
  // events_processed is exported into metrics.json: one drain-timer
  // fire per sub-step must count exactly like the reference's events.
  EXPECT_EQ(over.events_processed, ref.events_processed);
  EXPECT_EQ(over.enqueued, ref.enqueued);
  EXPECT_EQ(over.dequeued, ref.dequeued);
  EXPECT_EQ(over.dropped, ref.dropped);
  EXPECT_EQ(over.dropped_bytes, ref.dropped_bytes);
  EXPECT_EQ(over.bytes_transmitted, ref.bytes_transmitted);
  EXPECT_EQ(over.mean_queue_bytes, ref.mean_queue_bytes);
  EXPECT_EQ(over.utilization, ref.utilization);
  EXPECT_EQ(over.faults.offered_while_down, ref.faults.offered_while_down);
  EXPECT_EQ(over.faults.inflight_dropped, ref.faults.inflight_dropped);
  EXPECT_EQ(over.faults.inflight_dropped_bytes,
            ref.faults.inflight_dropped_bytes);
  EXPECT_EQ(over.faults.lost, ref.faults.lost);
  EXPECT_EQ(over.faults.corrupted, ref.faults.corrupted);
  EXPECT_EQ(over.backlog_at_down, ref.backlog_at_down);
  // The script is tuned to actually exercise the interesting paths:
  // a real backlog, real queue drops (the drop policy is part of the
  // comparison), random loss and corruption, and flaps that cut a
  // serializing and a propagating packet (>= 2 in-flight drops per
  // flap) while packets stay buffered across the outage.
  EXPECT_GT(over.deliveries.size(), 40u);
  EXPECT_GT(over.dropped, 0u);
  EXPECT_GT(over.faults.lost, 0u);
  EXPECT_GT(over.faults.corrupted, 0u);
  EXPECT_GT(over.faults.offered_while_down, 0u);
  EXPECT_GE(over.faults.inflight_dropped, 4u);
  EXPECT_GT(over.backlog_at_down, 0u);
}

// 12 kB shared buffer: ~8 full-size packets, small enough that the
// burst-heavy script overflows it repeatedly.
constexpr std::int64_t kBuffer = 12'000;

TEST(SimCoreDifferential, Fifo) {
  expect_engines_identical(
      [] { return std::make_unique<sched::FifoQueue>(kBuffer); });
}

TEST(SimCoreDifferential, Pifo) {
  expect_engines_identical(
      [] { return std::make_unique<sched::PifoQueue>(kBuffer); });
}

TEST(SimCoreDifferential, BucketedPifo) {
  expect_engines_identical([] {
    return std::make_unique<sched::BucketedPifo>(/*rank_space=*/256, kBuffer);
  });
}

TEST(SimCoreDifferential, SpPifo) {
  expect_engines_identical([] {
    return std::make_unique<sched::SpPifoQueue>(/*num_queues=*/4, kBuffer);
  });
}

TEST(SimCoreDifferential, Drr) {
  expect_engines_identical([] {
    return std::make_unique<sched::DrrQueue>(/*quantum_bytes=*/1500, kBuffer);
  });
}

TEST(SimCoreDifferential, Aifo) {
  expect_engines_identical(
      [] { return std::make_unique<sched::AifoQueue>(kBuffer); });
}

TEST(SimCoreDifferential, CalendarQueue) {
  expect_engines_identical([] {
    return std::make_unique<sched::CalendarQueue>(/*num_buckets=*/8,
                                                  /*bucket_width=*/32,
                                                  kBuffer);
  });
}

TEST(SimCoreDifferential, StrictPriority) {
  expect_engines_identical([] {
    return std::make_unique<sched::StrictPriorityBank>(/*num_queues=*/4,
                                                       kBuffer);
  });
}

TEST(SimCoreDifferential, EnginesReallyDiffer) {
  // Guard against the differential suite silently comparing two
  // identical reference runs: on the same script, the overhauled
  // engine queues its drain timers on the timing wheel while the
  // reference routes every event through the heap.
  const RunRecord over =
      run_script(std::make_unique<sched::FifoQueue>(kBuffer),
                 Simulator::SimCore::kOverhauled);
  const RunRecord ref =
      run_script(std::make_unique<sched::FifoQueue>(kBuffer),
                 Simulator::SimCore::kPerEventReference);
  EXPECT_GT(over.scheduled_wheel, 0u);
  EXPECT_EQ(ref.scheduled_wheel, 0u);
}

}  // namespace
}  // namespace qv::netsim
