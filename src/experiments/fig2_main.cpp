// fig2: run the paper's Fig. 2 scenario — one scheme, a list of
// schemes, or the whole grid crossed with a seed list — and emit each
// cell's artifacts next to each other in --out:
//
//   fig2_<scheme>[_s<seed>]_flows.csv    per-flow records
//   fig2_<scheme>[_s<seed>]_metrics.json the full metrics registry
//   fig2_<scheme>[_s<seed>]_trace.json   Chrome trace-event timeline
//   fig2_summary.json                    the whole grid, in grid order
//
// The grid fans across cores (--jobs, default hardware_concurrency);
// artifacts and summaries are byte-identical for every --jobs value
// (trace.json excepted: its span durations record wall-clock handler
// cost by design). Simulator dispatch spans are the bulk of a trace,
// so the `sim` category is opt-in via --trace-sim; --no-trace disables
// the timeline entirely.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "experiments/sweeps.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  qv::Flags flags;
  flags.define_string("scheme", "qvisor-adapt",
                      "fifo | pifo | qvisor | qvisor-adapt | all");
  flags.define_string("seeds", "", "comma-separated seed list (grid axis); "
                      "overrides --seed");
  flags.define_string("out", ".", "output directory for run artifacts");
  flags.define_int("seed", 1, "workload RNG seed");
  flags.define_int("jobs", 0,
                   "parallel runs (0 = hardware concurrency, 1 = serial; "
                   "output is byte-identical either way)");
  flags.define_int("sample-interval-us", 100,
                   "periodic sampler cadence (simulated microseconds)");
  flags.define_int("trace-capacity", 1 << 16,
                   "trace ring capacity (events; oldest overwritten)");
  flags.define_bool("trace", true, "emit the timeline trace at all");
  flags.define_bool("trace-sim", false,
                    "also trace simulator event dispatch (voluminous)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.help_requested()) return 0;

  qv::experiments::Fig2SweepConfig sweep;
  const std::string scheme = flags.get_string("scheme");
  if (scheme == "all") {
    sweep.schemes = qv::experiments::fig2_all_schemes();
  } else {
    qv::experiments::Fig2Scheme one;
    if (!qv::experiments::parse_fig2_scheme(scheme, &one)) {
      std::fprintf(stderr, "fig2: unknown --scheme '%s'\n", scheme.c_str());
      return 1;
    }
    sweep.schemes = {one};
  }
  if (!flags.get_string("seeds").empty()) {
    bool ok = false;
    sweep.seeds = qv::experiments::parse_u64_list(flags.get_string("seeds"),
                                                  &ok);
    if (!ok) {
      std::fprintf(stderr, "fig2: bad --seeds '%s'\n",
                   flags.get_string("seeds").c_str());
      return 1;
    }
  } else {
    sweep.seeds = {static_cast<std::uint64_t>(flags.get_int("seed"))};
  }
  sweep.out_dir = flags.get_string("out");
  sweep.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  sweep.obs.trace = flags.get_bool("trace");
  sweep.obs.trace_sim = flags.get_bool("trace-sim");
  sweep.obs.trace_capacity =
      static_cast<std::size_t>(flags.get_int("trace-capacity"));
  sweep.obs.sample_interval_us = flags.get_int("sample-interval-us");

  std::vector<qv::experiments::SweepCell> cells;
  try {
    cells = qv::experiments::run_fig2_sweep(sweep);
  } catch (const std::exception& e) {
    // Exit 2: artifacts could not be written (e.g. an unusable --out).
    std::fprintf(stderr, "fig2: %s\n", e.what());
    return 2;
  }
  for (const auto& cell : cells) {
    if (!cell.log.empty()) std::fputs(cell.log.c_str(), stderr);
    std::fputs(cell.summary.c_str(), stdout);
  }
  return 0;
}
