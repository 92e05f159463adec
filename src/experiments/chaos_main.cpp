// chaos: run the fault-injection harness over a seed grid and emit each
// cell's artifacts:
//
//   chaos[_s<seed>]_metrics.json  the full metrics registry (fault
//                                 counters, rollbacks/retries/
//                                 reconciles, conservation)
//   chaos[_s<seed>]_trace.json    Chrome trace-event timeline: link
//                                 outage spans, install failures,
//                                 rollbacks, reconciles, degraded
//                                 enter/exit (runtime category)
//   chaos_summary.json            the whole grid, in grid order
//
// Seeds fan across cores (--jobs, default hardware_concurrency); every
// artifact except trace.json is byte-identical for every --jobs value.
// Exits non-zero when any seed's invariant fails, so CI can run the
// whole former seed-matrix as ONE invocation.
#include <cstdio>
#include <string>
#include <vector>

#include "experiments/sweeps.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  qv::Flags flags;
  flags.define_int("seed", 1, "fault-schedule RNG seed");
  flags.define_string("seeds", "", "comma-separated seed list (grid axis); "
                      "overrides --seed");
  flags.define_string("out", ".", "output directory for run artifacts");
  flags.define_int("jobs", 0,
                   "parallel runs (0 = hardware concurrency, 1 = serial; "
                   "output is byte-identical either way)",
                   /*min_value=*/0);
  flags.define_bool("faults", true, "arm the random data-plane faults");
  flags.define_bool("control-faults", true,
                    "inject the install-fault window + agent reboot");
  flags.define_int("trace-capacity", 1 << 16,
                   "trace ring capacity (events; oldest overwritten)",
                   /*min_value=*/0);
  flags.define_bool("trace", true, "emit the timeline trace at all");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.help_requested()) return 0;

  qv::experiments::ChaosSweepConfig sweep;
  sweep.base.faults = flags.get_bool("faults");
  sweep.base.control_faults = flags.get_bool("control-faults");
  if (!qv::experiments::seeds_from_flags(flags, "chaos", &sweep.seeds)) {
    return 1;
  }
  sweep.out_dir = flags.get_string("out");
  sweep.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  sweep.obs.trace = flags.get_bool("trace");
  sweep.obs.trace_capacity =
      static_cast<std::size_t>(flags.get_int("trace-capacity"));

  return qv::experiments::run_cli_sweep(
      "chaos", "INVARIANT VIOLATED",
      [&sweep] { return qv::experiments::run_chaos_sweep(sweep); });
}
