// Parallel experiment sweeps: every experiment grid (fig2 schemes x
// seeds, fig4 schemes x loads x seeds, chaos seeds, overload modes x
// seeds) fanned across cores by the exec engine, with artifacts and
// summaries reduced in deterministic grid order.
//
// Each cell is fully isolated: it builds its own Observability
// (registry + tracer + samplers), its own Simulator and RNG streams
// inside the run_* function, writes only cell-unique files
// (<stem>_flows.csv / <stem>_metrics.json / <stem>_trace.json), and
// captures its log records into the cell instead of stderr. The
// reducer (calling thread) then writes <experiment>_summary.json and
// returns the cells in grid order — so for every artifact EXCEPT
// trace.json, `--jobs N` output is byte-identical to `--jobs 1`.
// trace.json is excluded from the byte-identity contract only because
// span durations deliberately record wall-clock handler cost (see
// obs/trace.hpp); every simulated-time field in it is deterministic.
//
// Grid order is row-major over the parameter vectors in declaration
// order (schemes, then loads, then seeds), i.e. exactly the nested
// loops a serial driver would write.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "experiments/chaos.hpp"
#include "experiments/fig2.hpp"
#include "experiments/fig4.hpp"
#include "experiments/overload.hpp"
#include "obs/json_writer.hpp"
#include "trafficgen/adversary_source.hpp"
#include "util/flags.hpp"

namespace qv::experiments {

/// One completed grid cell, in grid order.
struct SweepCell {
  std::string stem;     ///< artifact path stem (out_dir + "/fig2_qvisor"...)
  std::string summary;  ///< human-readable result block (newline-terminated)
  std::string log;      ///< captured QV_LOG records from this run
  bool ok = true;       ///< run-level invariants (chaos / overload)
};

/// Observability shape shared by every cell of a sweep.
struct SweepObsOptions {
  bool trace = true;
  bool trace_sim = false;  ///< fig2/fig4: also trace simulator dispatch
  std::size_t trace_capacity = 1u << 16;
  std::int64_t sample_interval_us = 100;  ///< fig2/fig4 samplers
};

// --- slug / list helpers (shared by CLIs and tests) -----------------------

const char* fig2_scheme_slug(Fig2Scheme s);
bool parse_fig2_scheme(const std::string& name, Fig2Scheme* out);
std::vector<Fig2Scheme> fig2_all_schemes();

const char* fig4_scheme_slug(Fig4Scheme s);
bool parse_fig4_scheme(const std::string& name, Fig4Scheme* out);
std::vector<Fig4Scheme> fig4_all_schemes();

/// "1,7,1337" -> {1,7,1337}; empty / malformed -> ok=false.
std::vector<std::uint64_t> parse_u64_list(const std::string& csv, bool* ok);
/// "0.1,0.5,0.9" -> {0.1,0.5,0.9}; empty / malformed -> ok=false.
std::vector<double> parse_double_list(const std::string& csv, bool* ok);
/// The seed grid axis: `--seeds a,b,c` when given, else `--seed`.
/// Prints "<prog>: bad --seeds '...'" and returns false on a malformed
/// list.
bool seeds_from_flags(const Flags& flags, const char* prog,
                      std::vector<std::uint64_t>* seeds);

/// The tail every experiment CLI shares: run the sweep (exit 2 when
/// its artifacts cannot be written, e.g. an unusable --out), print each
/// cell's captured log to stderr and summary to stdout, and exit 1 when
/// a cell failed its run-level check (reported as `<prog>: <violation>
/// (<stem>)`).
template <typename Run>
int run_cli_sweep(const char* prog, const char* violation, Run&& run) {
  decltype(run()) cells;
  try {
    cells = run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return 2;
  }
  int code = 0;
  for (const auto& cell : cells) {
    if constexpr (requires { cell.log; }) {
      std::fputs(cell.log.c_str(), stderr);
    }
    std::fputs(cell.summary.c_str(), stdout);
    if (!cell.ok) {
      std::fprintf(stderr, "%s: %s (%s)\n", prog, violation,
                   cell.stem.c_str());
      code = 1;
    }
  }
  return code;
}

/// `<path>`: {"experiment": <experiment>, "grid": [<grid(w) rows>]}.
/// Throws std::runtime_error naming `path` when it cannot be written.
void write_summary_json(const std::string& path, const char* experiment,
                        const std::function<void(obs::JsonWriter&)>& grid);

// --- fig2: schemes x seeds ------------------------------------------------

struct Fig2SweepConfig {
  Fig2Config base;  ///< scheme/seed/obs/flow_csv overridden per cell
  std::vector<Fig2Scheme> schemes = {Fig2Scheme::kQvisorAdapt};
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;  ///< 0 = hardware_concurrency, 1 = serial
  SweepObsOptions obs;
};

std::vector<SweepCell> run_fig2_sweep(const Fig2SweepConfig& sweep);

// --- fig4: schemes x loads x seeds ----------------------------------------

struct Fig4SweepConfig {
  Fig4Config base;  ///< from fig4_scaled_config() / fig4_paper_config()
  std::vector<Fig4Scheme> schemes = {Fig4Scheme::kQvisorPfabricOverEdf};
  std::vector<double> loads = {0.5};
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;
  SweepObsOptions obs;
};

std::vector<SweepCell> run_fig4_sweep(const Fig4SweepConfig& sweep);

// --- chaos: seeds ---------------------------------------------------------

struct ChaosSweepConfig {
  ChaosConfig base;  ///< seed/obs overridden per cell
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;
  SweepObsOptions obs;
};

std::vector<SweepCell> run_chaos_sweep(const ChaosSweepConfig& sweep);

// --- overload: modes x seeds ----------------------------------------------

struct OverloadSweepConfig {
  OverloadConfig base;  ///< mode/seed/obs overridden per cell
  std::vector<trafficgen::AdversaryMode> modes = {
      trafficgen::AdversaryMode::kFlooder};
  std::vector<std::uint64_t> seeds = {1};
  std::string out_dir = ".";
  std::size_t jobs = 0;
  SweepObsOptions obs;
};

std::vector<SweepCell> run_overload_sweep(const OverloadSweepConfig& sweep);

}  // namespace qv::experiments
