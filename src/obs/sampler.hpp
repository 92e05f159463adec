// Periodic runtime samplers: named callbacks invoked together on a
// fixed cadence, driven by whatever clock owns the experiment (the
// simulator's timer wheel in this repo).
//
// SamplerSet knows nothing about the simulator — schedule_samplers()
// is a template over any scheduler exposing `at(TimeNs, fn)`, which
// keeps obs/ free of a netsim dependency (netsim already depends on
// sched, and sched exports metrics into obs).
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace qv::obs {

class SamplerSet {
 public:
  using Fn = std::function<void(TimeNs now)>;

  void add(std::string name, Fn fn) {
    samplers_.push_back({std::move(name), std::move(fn)});
  }

  /// Run every sampler once at `now`.
  void tick(TimeNs now) {
    ++ticks_;
    for (auto& s : samplers_) s.fn(now);
  }

  std::size_t size() const { return samplers_.size(); }
  std::uint64_t ticks() const { return ticks_; }
  const std::string& name(std::size_t i) const { return samplers_[i].name; }

 private:
  struct Sampler {
    std::string name;
    Fn fn;
  };
  std::vector<Sampler> samplers_;
  std::uint64_t ticks_ = 0;
};

/// Pre-schedule sampler ticks every `interval` on (0, end]. `sim` and
/// `samplers` must outlive the scheduled events (experiments own both
/// on the stack for the whole run). Throws std::invalid_argument when
/// `interval` <= 0 (the tick times would never advance).
template <typename Sched>
void schedule_samplers(Sched& sim, SamplerSet& samplers, TimeNs interval,
                       TimeNs end) {
  if (interval <= 0) {
    throw std::invalid_argument("sampler interval must be > 0, got " +
                                std::to_string(interval) + " ns");
  }
  for (TimeNs t = interval; t <= end; t += interval) {
    sim.at(t, [&samplers, t] { samplers.tick(t); });
  }
}

}  // namespace qv::obs
