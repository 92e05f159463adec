// overload: run the adversarial-tenant harness over a modes x seeds
// grid and emit each cell's artifacts:
//
//   overload_<mode>[_s<seed>]_metrics.json  metrics registry of the
//                                           attack run (per-tenant
//                                           admission counters, monitor
//                                           observations, quarantines)
//   overload_<mode>[_s<seed>]_trace.json    timeline: admission throttle
//                                           engaging, verdict
//                                           escalations, quarantine
//                                           instants
//   overload_summary.json                   the whole grid, grid order
//
// Cells fan across cores (--jobs); every artifact except trace.json is
// byte-identical for every --jobs value. Exits non-zero when any
// cell's isolation contract fails, so CI can run the whole former
// mode x seed matrix as ONE invocation.
#include <cstdio>
#include <string>
#include <vector>

#include "experiments/sweeps.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  qv::Flags flags;
  flags.define_int("seed", 1, "adversary RNG seed");
  flags.define_string("seeds", "", "comma-separated seed list (grid axis); "
                      "overrides --seed");
  flags.define_string("mode", "flooder",
                      "adversary mode: flooder | gamer | churn | herd | all");
  flags.define_bool("guard", true,
                    "enable the admission guard (off = demonstration)");
  flags.define_string("out", ".", "output directory for run artifacts");
  flags.define_int("jobs", 0,
                   "parallel runs (0 = hardware concurrency, 1 = serial; "
                   "output is byte-identical either way)",
                   /*min_value=*/0);
  flags.define_int("trace-capacity", 1 << 16,
                   "trace ring capacity (events; oldest overwritten)",
                   /*min_value=*/0);
  flags.define_bool("trace", true, "emit the timeline trace at all");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.help_requested()) return 0;

  qv::experiments::OverloadSweepConfig sweep;
  const std::string mode = flags.get_string("mode");
  if (mode == "all") {
    sweep.modes = {qv::trafficgen::AdversaryMode::kFlooder,
                   qv::trafficgen::AdversaryMode::kRankGamer,
                   qv::trafficgen::AdversaryMode::kTenantChurn,
                   qv::trafficgen::AdversaryMode::kBurstHerd};
  } else {
    qv::trafficgen::AdversaryMode one;
    if (!qv::trafficgen::parse_adversary_mode(mode, &one)) {
      std::fprintf(stderr, "overload: unknown mode '%s'\n", mode.c_str());
      return 1;
    }
    sweep.modes = {one};
  }
  if (!qv::experiments::seeds_from_flags(flags, "overload", &sweep.seeds)) {
    return 1;
  }
  sweep.base.guard = flags.get_bool("guard");
  sweep.out_dir = flags.get_string("out");
  sweep.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  sweep.obs.trace = flags.get_bool("trace");
  sweep.obs.trace_capacity =
      static_cast<std::size_t>(flags.get_int("trace-capacity"));

  return qv::experiments::run_cli_sweep(
      "overload", "ISOLATION VIOLATED",
      [&sweep] { return qv::experiments::run_overload_sweep(sweep); });
}
