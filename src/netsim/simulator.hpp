// Simulator: the clock plus the event queue, with run-until helpers.
//
// Observability: an optional obs::Tracer can be attached; when its
// `sim` category is enabled, every dispatched event becomes a trace
// span at its simulated timestamp whose DURATION is the wall-clock
// nanoseconds the handler took — the Perfetto timeline then shows both
// where simulated time went and what each event cost to execute. With
// no tracer attached (the default) the run loop is unchanged: the
// traced loop is a separate out-of-line path selected once per run call,
// not per event.
#pragma once

#include <cassert>
#include <cstdint>

#include "netsim/event.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"

namespace qv::netsim {

class Simulator {
 public:
  /// Engine variant. kOverhauled (the default): timing-wheel ordering
  /// plus coalesced link drains. kPerEventReference: the pre-overhaul
  /// engine — heap ordering, one event per serialization / propagation
  /// step — kept runtime-selectable as the differential-testing
  /// reference and the benchmark baseline. Both variants produce
  /// byte-identical artifacts; see DESIGN.md (simulation core).
  enum class SimCore { kOverhauled, kPerEventReference };

  /// Select the engine variant. Must be called before anything is
  /// scheduled (the reference queue layout differs).
  void set_simcore(SimCore mode) {
    queue_.set_heap_only(mode == SimCore::kPerEventReference);
    simcore_ = mode;
  }
  SimCore simcore() const { return simcore_; }
  /// True when links should use the coalesced drain path.
  bool coalesced_drains() const {
    return simcore_ == SimCore::kOverhauled;
  }

  TimeNs now() const { return now_; }

  /// Schedule at an absolute time (must be >= now()).
  EventId at(TimeNs when, EventFn fn);

  /// Schedule after a relative delay (must be >= 0).
  EventId after(TimeNs delay, EventFn fn);

  /// Cancel a pending (not yet run) event.
  void cancel(EventId id) { queue_.cancel(id); }

  /// Run every event up to and including `deadline`; the clock stops at
  /// `deadline` even if the queue empties earlier.
  void run_until(TimeNs deadline);

  /// Run until the event queue is empty.
  void run();

  std::uint64_t events_processed() const { return processed_; }
  bool idle() const { return queue_.empty(); }

  // --- coalesced-drain support (used by Link) -------------------------
  //
  // The coalesced drain keeps one persistent timer per link, armed for
  // its earliest pending sub-step with the sequence number the
  // per-event reference would have drawn for that step's event.

  /// Burn the next schedule sequence number (see EventQueue).
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }

  /// Persistent timer plumbing (see EventQueue): the link drain keeps
  /// one timer per link and re-arms it instead of re-scheduling.
  EventId make_timer(void (*cb)(void*), void* ctx) {
    return queue_.make_timer(cb, ctx);
  }
  void arm_timer(EventId id, TimeNs when, std::uint64_t seq) {
    assert(when >= now_);
    queue_.arm_timer(id, when, seq);
  }
  void disarm_timer(EventId id) { queue_.disarm_timer(id); }
  void destroy_timer(EventId id) { queue_.destroy_timer(id); }

  /// Always 0: kept only because the frozen benchmark harness reads it.
  std::uint64_t events_replayed() const { return 0; }

  /// Timing-wheel diagnostics (occupancy split, overflow migrations),
  /// exported into benchmark artifacts.
  const EventQueue::WheelStats& wheel_stats() const {
    return queue_.wheel_stats();
  }
  std::size_t overflow_heap_size() const {
    return queue_.overflow_heap_size();
  }

  /// Attach (or detach with nullptr) a tracer. Not owned; must outlive
  /// any subsequent run. Links reach it through sim().tracer().
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  /// run_until with per-event dispatch spans (tracer enabled path).
  void run_until_traced(TimeNs deadline);

  EventQueue queue_;
  TimeNs now_ = 0;
  std::uint64_t processed_ = 0;
  SimCore simcore_ = SimCore::kOverhauled;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace qv::netsim
