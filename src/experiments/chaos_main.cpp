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
#include <exception>
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
                   "output is byte-identical either way)");
  flags.define_bool("faults", true, "arm the random data-plane faults");
  flags.define_bool("control-faults", true,
                    "inject the install-fault window + agent reboot");
  flags.define_int("trace-capacity", 1 << 16,
                   "trace ring capacity (events; oldest overwritten)");
  flags.define_bool("trace", true, "emit the timeline trace at all");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.help_requested()) return 0;

  qv::experiments::ChaosSweepConfig sweep;
  sweep.base.faults = flags.get_bool("faults");
  sweep.base.control_faults = flags.get_bool("control-faults");
  if (!flags.get_string("seeds").empty()) {
    bool ok = false;
    sweep.seeds =
        qv::experiments::parse_u64_list(flags.get_string("seeds"), &ok);
    if (!ok) {
      std::fprintf(stderr, "chaos: bad --seeds '%s'\n",
                   flags.get_string("seeds").c_str());
      return 1;
    }
  } else {
    sweep.seeds = {static_cast<std::uint64_t>(flags.get_int("seed"))};
  }
  sweep.out_dir = flags.get_string("out");
  sweep.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  sweep.obs.trace = flags.get_bool("trace");
  sweep.obs.trace_capacity =
      static_cast<std::size_t>(flags.get_int("trace-capacity"));

  std::vector<qv::experiments::SweepCell> cells;
  try {
    cells = qv::experiments::run_chaos_sweep(sweep);
  } catch (const std::exception& e) {
    // Exit 2: artifacts could not be written (e.g. an unusable --out).
    std::fprintf(stderr, "chaos: %s\n", e.what());
    return 2;
  }
  bool all_ok = true;
  for (const auto& cell : cells) {
    if (!cell.log.empty()) std::fputs(cell.log.c_str(), stderr);
    std::fputs(cell.summary.c_str(), stdout);
    if (!cell.ok) {
      std::fprintf(stderr, "chaos: INVARIANT VIOLATED (%s)\n",
                   cell.stem.c_str());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
