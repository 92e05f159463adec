// dataplane_chaos: run the dataplane fault-domain harness over a
// fault-kind x seed grid and emit each cell's artifacts:
//
//   dpchaos_<kind>[_s<seed>]_metrics.json  the faulted run's registry
//                                          (books, stage histograms,
//                                          dataplane.supervisor.*)
//   dpchaos_<kind>[_s<seed>]_trace.json    Perfetto/Chrome trace-event
//                                          timeline: one span per
//                                          checkpoint restore, one
//                                          instant per quarantine
//   dpchaos_summary.json                   the whole grid, grid order
//
// Cells fan across cores (--jobs); exits non-zero when any cell's
// fault-domain contract fails (unbalanced books, supervision overhead
// on the fault-free path, unbounded loss, slow recovery, or a fault
// kind that never fired), so CI runs the matrix as ONE invocation.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "experiments/dataplane_chaos.hpp"
#include "experiments/sweeps.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  qv::Flags flags;
  flags.define_int("seed", 1, "dataplane + fault-schedule RNG seed");
  flags.define_string("seeds", "", "comma-separated seed list (grid axis); "
                      "overrides --seed");
  flags.define_string("kinds", "",
                      "comma-separated fault kinds "
                      "(stall,crash,poison,desync,random); default all");
  flags.define_string("out", ".", "output directory for run artifacts");
  flags.define_int("jobs", 0,
                   "parallel cells (0 = hardware concurrency, 1 = serial)");
  flags.define_int("packets", 0,
                   "packets per port (0 = harness default)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.help_requested()) return 0;

  qv::experiments::DataplaneChaosSweepConfig sweep;
  if (!flags.get_string("seeds").empty()) {
    bool ok = false;
    sweep.seeds =
        qv::experiments::parse_u64_list(flags.get_string("seeds"), &ok);
    if (!ok) {
      std::fprintf(stderr, "dataplane_chaos: bad --seeds '%s'\n",
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
      qv::experiments::DataplaneFaultKind kind;
      if (!qv::experiments::parse_dataplane_fault_kind(name, &kind)) {
        std::fprintf(stderr, "dataplane_chaos: bad fault kind '%s'\n",
                     name.c_str());
        return 1;
      }
      sweep.kinds.push_back(kind);
      pos = comma + 1;
    }
  }
  sweep.out_dir = flags.get_string("out");
  sweep.jobs = static_cast<std::size_t>(flags.get_int("jobs"));
  if (flags.get_int("packets") > 0) {
    sweep.base.base.packets_per_port =
        static_cast<std::uint64_t>(flags.get_int("packets"));
  }

  std::vector<qv::experiments::DataplaneChaosCell> cells;
  try {
    cells = qv::experiments::run_dataplane_chaos_sweep(sweep);
  } catch (const std::exception& e) {
    // Exit 2: artifacts could not be written (e.g. an unusable --out).
    std::fprintf(stderr, "dataplane_chaos: %s\n", e.what());
    return 2;
  }
  bool all_ok = true;
  for (const auto& cell : cells) {
    std::fputs(cell.summary.c_str(), stdout);
    if (!cell.ok) {
      std::fprintf(stderr, "dataplane_chaos: CONTRACT VIOLATED (%s)\n",
                   cell.stem.c_str());
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
