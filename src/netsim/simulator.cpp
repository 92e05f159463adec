#include "netsim/simulator.hpp"

#include <cassert>
#include <chrono>

namespace qv::netsim {

EventId Simulator::at(TimeNs when, EventFn fn) {
  assert(when >= now_);
  return queue_.schedule(when, std::move(fn));
}

EventId Simulator::after(TimeNs delay, EventFn fn) {
  assert(delay >= 0);
  return queue_.schedule(now_ + delay, std::move(fn));
}

void Simulator::run_until(TimeNs deadline) {
  if (tracer_ != nullptr && tracer_->enabled(obs::TraceCategory::kSim)) {
    run_until_traced(deadline);
    return;
  }
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    // Advance the clock BEFORE dispatching so the event's callback
    // observes its own timestamp through now().
    now_ = queue_.next_time();
    queue_.run_next();
    ++processed_;
  }
  now_ = deadline;
}

void Simulator::run_until_traced(TimeNs deadline) {
  using Clock = std::chrono::steady_clock;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    now_ = queue_.next_time();
    const TimeNs ts = now_;
    const auto t0 = Clock::now();
    queue_.run_next();
    const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - t0)
                             .count();
    ++processed_;
    // Span at the simulated timestamp; duration = wall-clock handler
    // cost (see the class comment).
    tracer_->complete(obs::TraceCategory::kSim, "dispatch", ts,
                      static_cast<TimeNs>(wall_ns), /*tid=*/0, "events",
                      processed_);
  }
  now_ = deadline;
}

void Simulator::run() {
  while (!queue_.empty()) {
    now_ = queue_.next_time();
    queue_.run_next();
    ++processed_;
  }
}

}  // namespace qv::netsim
