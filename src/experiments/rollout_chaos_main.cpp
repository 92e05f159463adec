// rollout_chaos: run the management-plane rollout harness over a
// fault-kind x seed grid and emit each cell's artifacts:
//
//   rollout_<kind>[_s<seed>]_metrics.json  fleet + control-plane +
//                                          store registries at the end
//                                          of the run
//   rollout_<kind>[_s<seed>]_trace.json    Perfetto/Chrome trace-event
//                                          timeline of waves, probes,
//                                          aborts and reconciles
//   rollout_<kind>[_s<seed>]_store/        the cell's config store
//                                          (journal + snapshot)
//   rollout_chaos_summary.json             the whole grid, grid order
//
// Cells fan across cores (--jobs); exits non-zero when any cell's
// rollout contract fails (mixed-version fleet, fleet off last-known-
// good, canary gate bypassed, a lost acked store version, or packets
// scheduled under a half-installed plan), so CI runs the matrix as ONE
// invocation.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "experiments/rollout_chaos.hpp"
#include "experiments/sweeps.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  qv::Flags flags;
  flags.define_int("seed", 1, "fault-schedule + probe-workload RNG seed");
  flags.define_string("seeds", "", "comma-separated seed list (grid axis); "
                      "overrides --seed");
  flags.define_string("kinds", "",
                      "comma-separated fault kinds (clean,unreachable,"
                      "canary-slo,store-crash,random); default all");
  flags.define_string("out", ".", "output directory for run artifacts");
  flags.define_int("jobs", 0,
                   "parallel cells (0 = hardware concurrency, 1 = serial)");
  flags.define_int("switches", 0,
                   "simulated fleet size (0 = harness default, 200)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.help_requested()) return 0;

  qv::experiments::RolloutChaosSweepConfig sweep;
  if (!flags.get_string("seeds").empty()) {
    bool ok = false;
    sweep.seeds =
        qv::experiments::parse_u64_list(flags.get_string("seeds"), &ok);
    if (!ok) {
      std::fprintf(stderr, "rollout_chaos: bad --seeds '%s'\n",
                   flags.get_string("seeds").c_str());
      return 1;
    }
  } else {
    sweep.seeds = {static_cast<std::uint64_t>(flags.get_int("seed"))};
  }
  if (!flags.get_string("kinds").empty()) {
    sweep.kinds.clear();
    std::string csv = flags.get_string("kinds");
    std::size_t pos = 0;
    while (pos <= csv.size()) {
      const std::size_t comma = std::min(csv.find(',', pos), csv.size());
      const std::string name = csv.substr(pos, comma - pos);
      qv::experiments::RolloutFaultKind kind;
      if (!qv::experiments::parse_rollout_fault_kind(name, &kind)) {
        std::fprintf(stderr, "rollout_chaos: bad fault kind '%s'\n",
                     name.c_str());
        return 1;
      }
      sweep.kinds.push_back(kind);
      pos = comma + 1;
    }
  }
  sweep.out_dir = flags.get_string("out");
  sweep.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  if (flags.get_int("switches") > 0) {
    sweep.base.switches = static_cast<std::size_t>(flags.get_int("switches"));
  }

  std::vector<qv::experiments::RolloutChaosCell> cells;
  try {
    cells = qv::experiments::run_rollout_chaos_sweep(sweep);
  } catch (const std::exception& e) {
    // Exit 2: artifacts could not be written (e.g. an unusable --out).
    std::fprintf(stderr, "rollout_chaos: %s\n", e.what());
    return 2;
  }
  bool all_ok = true;
  for (const auto& cell : cells) {
    std::fputs(cell.summary.c_str(), stdout);
    if (!cell.ok) {
      std::fprintf(stderr, "rollout_chaos: CONTRACT VIOLATED (%s)\n",
                   cell.stem.c_str());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
