// perfbench: the repository benchmark. One process runs one named
// workload for --seconds and prints, as its last stdout line, one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics
// untraced (--trace 0), or the per-layer metrics from a separate traced
// run (--trace 1). run.py builds this binary and drives it; see
// README.md for the workloads, the metrics and the layer table.
//
// Every run reports every end-to-end metric, so a workload is its own
// part (most of the time, and setup_s) plus companion parts for the
// metrics it does not own, all stepped in turns over the run. The
// traced run traces the same parts.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "mgmt/json.hpp"
#include "parts.hpp"

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kNetsim: return "netsim";
    case Layer::kSched: return "sched";
    case Layer::kQvisor: return "qvisor";
    case Layer::kTelemetry: return "telemetry";
    case Layer::kTrafficgen: return "trafficgen";
    case Layer::kWorkload: return "workload";
    case Layer::kDataplane: return "dataplane";
    case Layer::kControl: return "control";
    case Layer::kMgmt: return "mgmt";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the self-check test compares them).
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},           {"sim_wall_s", "s"},
    {"sim_events_per_s", "1/s"}, {"small_fct_ms", "ms"},
    {"large_fct_ms", "ms"},     {"dp_pps_per_shard", "1/s"},
    {"deploy_p50_us", "us"},    {"deploy_p99_us", "us"},
    {"rollout_p50_ms", "ms"},   {"rollout_p90_ms", "ms"},
};

constexpr MetricDecl kPerLayer[] = {
    {"netsim.self_s", "s"},
    {"netsim.ns_per_event", "ns"},
    {"netsim.events", "count"},
    {"netsim.events_replayed", "count"},
    {"netsim.coalesce_ratio", "ratio"},
    {"netsim.wheel.peak_live", "count"},
    {"netsim.wheel.scheduled_heap", "count"},
    {"netsim.wheel.migrated_from_heap", "count"},
    {"netsim.wheel.migrated_wheel_levels", "count"},
    {"netsim.wheel.rotations", "count"},
    {"sched.self_s", "s"},
    {"sched.ns_per_call", "ns"},
    {"sched.enqueue_calls", "count"},
    {"sched.dequeue_calls", "count"},
    {"sched.dequeue_hit_ratio", "ratio"},
    {"qvisor.self_s", "s"},
    {"qvisor.ns_per_packet", "ns"},
    {"telemetry.self_s", "s"},
    {"telemetry.deliveries", "count"},
    {"trafficgen.flow_starts", "count"},
    {"trafficgen.start_s", "s"},
    {"workload.arrivals_s", "s"},
    {"dataplane.self_s", "s"},
    {"dataplane.batches", "count"},
    {"dataplane.empty_polls", "count"},
    {"dataplane.full_spins", "count"},
    {"dataplane.batch_pkts_p50", "count"},
    {"dataplane.ring_occupancy_p50", "count"},
    {"dataplane.admission_drop_ratio", "ratio"},
    {"control.self_s", "s"},
    {"control.compile_us", "us"},
    {"control.diff_us", "us"},
    {"control.commit_us", "us"},
    {"control.incremental_ratio", "ratio"},
    {"control.lookup_ns", "ns"},
    {"control.index_bytes", "bytes"},
    {"mgmt.self_s", "s"},
    {"mgmt.put_ms", "ms"},
    {"mgmt.stage_us", "us"},
    {"mgmt.wave_commit_us", "us"},
    {"mgmt.probe_us", "us"},
    {"mgmt.finalize_us", "us"},
    {"mgmt.mark_good_ms", "ms"},
    {"mgmt.waves_per_rollout", "count"},
    {"sim.unattributed_s", "s"},
    {"trace_overhead", "ratio"},
};

/// A part of a workload: fig4 cells (which ones in `set`), the
/// dataplane, or the control and management planes.
struct PartSpec {
  enum class Kind { kFig4, kDataplane, kControl } kind;
  Fig4Set set = Fig4Set::kSweep;
};

constexpr PartSpec kDataplanePart{PartSpec::Kind::kDataplane};
constexpr PartSpec kControlPart{PartSpec::Kind::kControl};
constexpr PartSpec fig4(Fig4Set set) {
  return PartSpec{PartSpec::Kind::kFig4, set};
}

struct Workload {
  const char* name;
  PartSpec main;
  std::vector<PartSpec> companions;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"fig4-sweep", fig4(Fig4Set::kSweep), {kDataplanePart, kControlPart}},
      {"fig4-paper-fabric", fig4(Fig4Set::kPaperFabric),
       {kDataplanePart, kControlPart}},
      {"dataplane-fused", kDataplanePart,
       {fig4(Fig4Set::kCompanion), kControlPart}},
      {"control-1m", kControlPart,
       {fig4(Fig4Set::kCompanion), kDataplanePart}},
  };
  return w;
}

/// Shares of the run: the workload's own part, its set-up repetitions,
/// and the companions, which split the rest.
constexpr double kMainShare = 0.6;
constexpr double kSetupShare = 0.02;
constexpr std::size_t kSetupReps = 31;

std::unique_ptr<Part> make_part(PartSpec spec, std::uint64_t seed,
                                bool small) {
  switch (spec.kind) {
    case PartSpec::Kind::kFig4:
      return make_fig4_part(spec.set, seed, small);
    case PartSpec::Kind::kDataplane:
      return make_dataplane_part(seed, small);
    case PartSpec::Kind::kControl:
      return make_control_part(seed, small);
  }
  return nullptr;
}

/// setup_s: repeated set-ups of the workload's own part, stepped among
/// the other parts so they sample the whole run; reports the median.
class SetupPart final : public Part {
 public:
  SetupPart(PartSpec spec, std::uint64_t seed, std::size_t reps)
      : spec_(spec), seed_(seed), reps_(reps) {}

  void step(Record& rec) override {
    switch (spec_.kind) {
      case PartSpec::Kind::kFig4:
        samples_.push_back(fig4_setup_once(spec_.set, seed_));
        break;
      case PartSpec::Kind::kDataplane:
        samples_.push_back(dataplane_setup_once(seed_, rec));
        break;
      case PartSpec::Kind::kControl:
        samples_.push_back(control_setup_once(seed_));
        break;
    }
  }
  bool done() const override { return samples_.size() >= reps_; }
  void report(Record& rec) const override {
    rec.metric("setup_s", median(samples_), "s");
  }

 private:
  PartSpec spec_;
  std::uint64_t seed_;
  std::size_t reps_;
  std::vector<double> samples_;
};

void traced_part(PartSpec spec, std::uint64_t seed, bool small, Record& rec,
                 LayerTable& table) {
  switch (spec.kind) {
    case PartSpec::Kind::kFig4:
      return fig4_traced(spec.set, seed, rec, table);
    case PartSpec::Kind::kDataplane:
      return dataplane_traced(seed, small, rec, table);
    case PartSpec::Kind::kControl:
      return control_traced(seed, small, rec, table);
  }
}

/// Step the parts, interleaved, until `budget_s` has passed and every
/// part has its minimum samples. The next step always goes to the part
/// furthest below its share of the time spent so far.
void interleave(const std::vector<std::unique_ptr<Part>>& parts,
                const std::vector<double>& shares, double budget_s,
                Record& rec) {
  std::vector<double> spent(parts.size(), 0.0);
  const std::int64_t start = now_ns();
  while (true) {
    const bool over = seconds_since(start) >= budget_s;
    std::size_t next = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (over && parts[i]->done()) continue;
      if (next == parts.size() ||
          spent[i] / shares[i] < spent[next] / shares[next]) {
        next = i;
      }
    }
    if (next == parts.size()) break;
    const std::int64_t t0 = now_ns();
    parts[next]->step(rec);
    spent[next] += seconds_since(t0);
  }
  for (const auto& p : parts) p->report(rec);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_stamp(const std::string& workload, std::uint64_t seed,
                 double seconds, bool traced, const std::string& commit,
                 const std::string& src_digest) {
  std::printf(
      "{\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"host_cores\":%u,\"build_type\":\"%s\","
      "\"cxx_flags\":\"%s\",\"compiler\":\"%s\",\"commit\":\"%s\","
      "\"src_digest\":\"%s\"}}\n",
      json_escape(workload).c_str(), static_cast<unsigned long long>(seed),
      number(seconds).c_str(), traced ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      json_escape(__VERSION__).c_str(), json_escape(commit).c_str(),
      json_escape(src_digest).c_str());
}

/// Checks that the layer table adds up: every self time and the
/// unattributed remainder are non-negative, and together they equal
/// the traced wall time.
bool table_adds_up(const LayerTable& t) {
  bool ok = t.unattributed_s() >= 0.0 && t.traced_wall_s > 0.0;
  double sum = t.unattributed_s();
  for (const double s : t.self_s) {
    ok = ok && s >= 0.0;
    sum += s;
  }
  return ok && std::fabs(sum - t.traced_wall_s) <= 1e-9 * t.traced_wall_s;
}

/// The layer table as one JSON line on stdout and a readable table on
/// stderr.
void print_layer_table(const LayerTable& t) {
  std::string json = "{\"layer_table\":{";
  std::fprintf(stderr, "%-14s %12s %8s\n", "layer", "self_s", "share");
  for (std::size_t i = 0; i < kLayers; ++i) {
    const char* name = layer_name(static_cast<Layer>(i));
    json.append("\"").append(name).append("\":");
    json.append(number(t.self_s[i])).append(",");
    std::fprintf(stderr, "%-14s %12.6f %7.2f%%\n", name, t.self_s[i],
                 100.0 * t.self_s[i] / t.traced_wall_s);
  }
  json += "\"unattributed\":" + number(t.unattributed_s()) +
          ",\"traced_wall_s\":" + number(t.traced_wall_s) +
          ",\"untraced_wall_s\":" + number(t.untraced_wall_s) +
          ",\"trace_overhead\":" +
          number(t.traced_wall_s / t.untraced_wall_s) + "}}";
  std::fprintf(stderr, "%-14s %12.6f %7.2f%%\n", "unattributed",
               t.unattributed_s(),
               100.0 * t.unattributed_s() / t.traced_wall_s);
  std::fprintf(stderr, "%-14s %12.6f  (untraced %.6f s, overhead %.3fx)\n",
               "traced wall", t.traced_wall_s, t.untraced_wall_s,
               t.traced_wall_s / t.untraced_wall_s);
  std::printf("%s\n", json.c_str());
}

void print_result(const Record& rec, bool correct) {
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(rec.attempted());
  json += ",\"failed\":" + std::to_string(rec.failed());
  json += ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : rec.metrics()) {
    if (!first) json += ",";
    first = false;
    json += "\"" + m.name + "\":{\"value\":" + number(m.value) +
            ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Every declared metric is present with its unit (and, for end-to-end
/// metrics, measured as a positive finite number).
bool declared_present(const Record& rec, const MetricDecl* decls,
                      std::size_t n, bool positive) {
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    bool found = false;
    for (const Metric& m : rec.metrics()) {
      if (m.name != decls[i].name) continue;
      found = m.unit == decls[i].unit && std::isfinite(m.value) &&
              (!positive || m.value > 0.0);
    }
    if (!found) {
      std::fprintf(stderr, "perfbench: metric %s missing or not measured\n",
                   decls[i].name);
    }
    ok = ok && found;
  }
  return ok;
}

constexpr std::size_t kEndToEndCount = sizeof(kEndToEnd) / sizeof(kEndToEnd[0]);
constexpr std::size_t kPerLayerCount = sizeof(kPerLayer) / sizeof(kPerLayer[0]);

void finish_table(Record& rec, const LayerTable& table) {
  rec.metric("sim.unattributed_s", table.unattributed_s(), "s");
  rec.metric("trace_overhead", table.traced_wall_s / table.untraced_wall_s,
             "ratio");
  print_layer_table(table);
  rec.check(table_adds_up(table), "layer table does not add up");
}

int run_workload(const Workload& w, std::uint64_t seed, double seconds,
                 bool traced) {
  Record rec;
  bool correct = true;
  if (traced) {
    for (const MetricDecl& d : kPerLayer) rec.metric(d.name, 0.0, d.unit);
    LayerTable table;
    traced_part(w.main, seed, false, rec, table);
    for (const PartSpec& spec : w.companions) {
      traced_part(spec, seed, false, rec, table);
    }
    finish_table(rec, table);
    correct = declared_present(rec, kPerLayer, kPerLayerCount, false);
  } else {
    std::vector<std::unique_ptr<Part>> parts;
    std::vector<double> shares;
    parts.push_back(std::make_unique<SetupPart>(w.main, seed, kSetupReps));
    shares.push_back(kSetupShare);
    parts.push_back(make_part(w.main, seed, false));
    shares.push_back(kMainShare);
    for (const PartSpec& spec : w.companions) {
      parts.push_back(make_part(spec, seed, false));
      shares.push_back((1.0 - kMainShare - kSetupShare) /
                       static_cast<double>(w.companions.size()));
    }
    interleave(parts, shares, seconds, rec);
    correct = declared_present(rec, kEndToEnd, kEndToEndCount, true);
  }
  print_result(rec, correct && rec.failed() == 0);
  return 0;
}

/// BENCHMARK.json declares exactly the metrics (names and units) and
/// workloads this binary reports.
bool declarations_match(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const qv::mgmt::JsonParseResult doc = qv::mgmt::parse_json(text.str());
  if (!in || !doc.ok()) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
    return false;
  }
  const auto field = [](const qv::mgmt::JsonValue& v, const char* key) {
    const qv::mgmt::JsonValue* f = v.find(key);
    return f != nullptr && f->is_string() ? f->as_string() : std::string();
  };
  const auto same = [&](const char* key, const MetricDecl* decls,
                        std::size_t n) {
    const qv::mgmt::JsonValue* list = doc.value->find(key);
    bool ok = list != nullptr && list->as_array().size() == n;
    for (std::size_t i = 0; ok && i < n; ++i) {
      const qv::mgmt::JsonValue& m = list->as_array()[i];
      ok = field(m, "name") == decls[i].name &&
           field(m, "unit") == decls[i].unit;
    }
    if (!ok) std::fprintf(stderr, "perfbench: %s differs from %s\n", key,
                          path.c_str());
    return ok;
  };
  const qv::mgmt::JsonValue* listed = doc.value->find("workloads");
  bool ok = listed != nullptr &&
            listed->as_array().size() == workloads().size();
  for (std::size_t i = 0; ok && i < workloads().size(); ++i) {
    ok = field(listed->as_array()[i], "name") == workloads()[i].name;
  }
  if (!ok) std::fprintf(stderr, "perfbench: workloads differ from %s\n",
                        path.c_str());
  return same("end_to_end", kEndToEnd, kEndToEndCount) &&
         same("per_layer", kPerLayer, kPerLayerCount) && ok;
}

/// A short pass over every part, traced and untraced: one scaled cell,
/// a small dataplane run, a few deploys and rollouts. Fails unless
/// every check passes, the traced cell is fingerprint-identical to
/// run_fig4, the layer table adds up, and BENCHMARK.json declares what
/// the binary reports.
int self_check(std::uint64_t seed, const std::string& benchmark_json) {
  // The reference cell crosses every simulator layer, QVISOR included.
  const PartSpec specs[] = {fig4(Fig4Set::kReferenceCell), kDataplanePart,
                            kControlPart};
  Record untraced;
  std::vector<std::unique_ptr<Part>> parts;
  parts.push_back(std::make_unique<SetupPart>(specs[0], seed, 1));
  for (const PartSpec& spec : specs) {
    parts.push_back(make_part(spec, seed, true));
  }
  interleave(parts, {1.0, 1.0, 1.0, 1.0}, 0.0, untraced);
  bool ok = untraced.failed() == 0 &&
            declared_present(untraced, kEndToEnd, kEndToEndCount, true);

  Record traced;
  LayerTable table;
  for (const PartSpec& spec : specs) {
    traced_part(spec, seed, true, traced, table);
  }
  finish_table(traced, table);
  ok = ok && traced.failed() == 0 &&
       declared_present(traced, kPerLayer, kPerLayerCount, false);
  // Every layer the three parts cross must have been charged.
  for (std::size_t i = 0; i < kLayers; ++i) {
    if (table.self_s[i] <= 0.0) {
      std::fprintf(stderr, "perfbench: layer %s was never charged\n",
                   layer_name(static_cast<Layer>(i)));
      ok = false;
    }
  }
  ok = declarations_match(benchmark_json) && ok;
  std::printf("self-check: %s (%llu + %llu operations)\n",
              ok ? "PASS" : "FAIL",
              static_cast<unsigned long long>(untraced.attempted()),
              static_cast<unsigned long long>(traced.attempted()));
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit ID] [--src-digest HEX] "
               "[--work-dir DIR]\n"
               "       perfbench --self-check --benchmark-json FILE "
               "[--work-dir DIR]\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  std::string benchmark_json;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-check") {
      check = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      if (!parse_u64(argv[++i], &seed)) return usage();
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      if (!parse_u64(argv[++i], &seconds) || seconds == 0) return usage();
    } else if (a == "--trace" && has_value) {
      if (!parse_u64(argv[++i], &trace) || trace > 1) return usage();
    } else if (a == "--commit" && has_value) {
      commit = argv[++i];
    } else if (a == "--src-digest" && has_value) {
      src_digest = argv[++i];
    } else if (a == "--benchmark-json" && has_value) {
      benchmark_json = argv[++i];
    } else if (a == "--work-dir" && has_value) {
      g_work_dir = argv[++i];
    } else {
      return usage();
    }
  }

  try {
    if (check) {
      if (benchmark_json.empty()) return usage();
      return self_check(have_seed ? seed : 1, benchmark_json);
    }
    const Workload* chosen = nullptr;
    for (const Workload& w : workloads()) {
      if (workload == w.name) chosen = &w;
    }
    if (chosen == nullptr || !have_seed || seconds == 0 || trace > 1) {
      return usage();
    }
    print_stamp(workload, seed, static_cast<double>(seconds), trace == 1,
                commit, src_digest);
    return run_workload(*chosen, seed, static_cast<double>(seconds),
                        trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
