#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "netsim/simulator.hpp"

namespace qv::obs {
namespace {

TEST(SamplerSet, TickRunsEverySamplerWithNow) {
  SamplerSet set;
  std::vector<TimeNs> a, b;
  set.add("a", [&a](TimeNs now) { a.push_back(now); });
  set.add("b", [&b](TimeNs now) { b.push_back(now); });
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.name(0), "a");

  set.tick(10);
  set.tick(20);
  EXPECT_EQ(set.ticks(), 2u);
  EXPECT_EQ(a, (std::vector<TimeNs>{10, 20}));
  EXPECT_EQ(b, (std::vector<TimeNs>{10, 20}));
}

TEST(SamplerSet, SamplersAddedAfterSchedulingStillTick) {
  // Experiments schedule the tick train once, then wiring helpers keep
  // adding samplers — tick() must always run the live set.
  SamplerSet set;
  int count = 0;
  set.tick(1);
  set.add("late", [&count](TimeNs) { ++count; });
  set.tick(2);
  EXPECT_EQ(count, 1);
}

TEST(ScheduleSamplers, DrivesTicksOnTheSimulatorCadence) {
  netsim::Simulator sim;
  SamplerSet set;
  std::vector<TimeNs> seen;
  set.add("probe", [&seen](TimeNs now) { seen.push_back(now); });

  schedule_samplers(sim, set, /*interval=*/100, /*end=*/450);
  sim.run_until(1000);

  // Ticks on (0, end]: 100, 200, 300, 400 (450 is not a multiple).
  EXPECT_EQ(seen, (std::vector<TimeNs>{100, 200, 300, 400}));
  EXPECT_EQ(set.ticks(), 4u);
}

TEST(ScheduleSamplers, RejectsANonPositiveInterval) {
  // An interval of 0 (or below) never advances the tick time: it must
  // fail loudly instead of growing the event queue without bound.
  netsim::Simulator sim;
  SamplerSet set;
  EXPECT_THROW(schedule_samplers(sim, set, /*interval=*/0, /*end=*/450),
               std::invalid_argument);
  EXPECT_THROW(schedule_samplers(sim, set, /*interval=*/-100, /*end=*/450),
               std::invalid_argument);
  EXPECT_TRUE(sim.idle());
}

}  // namespace
}  // namespace qv::obs
