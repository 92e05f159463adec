// The parts a workload is made of. A Part is measured one step at a
// time (a fig4 cell, a dataplane run, a control round) so the loop in
// main.cpp can interleave a workload's parts over the whole run: slow
// drifts of a shared host then spread over every metric instead of
// landing on whichever part ran during them. Every step checks its
// outputs; report() writes the part's end-to-end metrics.
//
// The traced functions run a part's operations once untraced and once
// traced, add both wall times and the layer self times to the table,
// and write the part's per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bench.hpp"

namespace perfbench {

class Part {
 public:
  virtual ~Part() = default;
  /// One measured operation (or a fixed group of them).
  virtual void step(Record& rec) = 0;
  /// Enough samples for every metric the part reports.
  virtual bool done() const = 0;
  virtual void report(Record& rec) const = 0;
};

/// Which fig4 cells a fig4 part runs.
enum class Fig4Set {
  kSweep,        ///< scaled topology, 6 schemes x loads {0.2, 0.5, 0.8}
  kPaperFabric,  ///< 144-host fabric, FIFO, load 0.5, scaled horizon
  kCompanion,    ///< scaled topology, PIFO pFabric alone, load 0.8
  kReferenceCell,  ///< scaled topology, QVISOR pFabric + EDF, load 0.7
};

/// `small` selects self-check sizes: few operations, fast.
std::unique_ptr<Part> make_fig4_part(Fig4Set set, std::uint64_t seed,
                                     bool small);
std::unique_ptr<Part> make_dataplane_part(std::uint64_t seed, bool small);
std::unique_ptr<Part> make_control_part(std::uint64_t seed, bool small);

/// Wall seconds of one set-up of the part: what precedes its first
/// measured operation.
double fig4_setup_once(Fig4Set set, std::uint64_t seed);
double dataplane_setup_once(std::uint64_t seed, Record& rec);
double control_setup_once(std::uint64_t seed);

void fig4_traced(Fig4Set set, std::uint64_t seed, Record& rec,
                 LayerTable& table);
void dataplane_traced(std::uint64_t seed, bool small, Record& rec,
                      LayerTable& table);
void control_traced(std::uint64_t seed, bool small, Record& rec,
                    LayerTable& table);

/// Directory the control part's config stores are created in.
extern std::string g_work_dir;

}  // namespace perfbench
