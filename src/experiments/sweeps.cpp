#include "experiments/sweeps.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>

#include "exec/sweep.hpp"
#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace qv::experiments {

namespace {

// printf-append into the cell's summary string: the sweep reducer
// replays these blocks in grid order, so they must never go straight
// to stdout from a worker.
void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

std::uint32_t trace_mask(const SweepObsOptions& opts) {
  if (!opts.trace) return 0;
  std::uint32_t mask = obs::trace_bit(obs::TraceCategory::kSched) |
                       obs::trace_bit(obs::TraceCategory::kQvisor) |
                       obs::trace_bit(obs::TraceCategory::kRuntime);
  if (opts.trace_sim) mask |= obs::trace_bit(obs::TraceCategory::kSim);
  return mask;
}

/// Every cell owns one of these: a fresh Observability plus the log
/// capture for the worker thread. Construction order matters — the
/// capture must outlive the run but not the artifact writes.
struct CellObs {
  obs::Observability obs;
  explicit CellObs(const SweepObsOptions& opts)
      : obs(opts.trace_capacity) {
    obs.sample_interval = microseconds(opts.sample_interval_us);
    obs.tracer.set_mask(trace_mask(opts));
  }
  void save(const std::string& stem) {
    obs::save_metrics_json(stem + "_metrics.json", obs.registry);
    obs::save_trace_json(stem + "_trace.json", obs.tracer);
  }
};

std::string seed_suffix(const std::vector<std::uint64_t>& seeds,
                        std::uint64_t seed) {
  if (seeds.size() <= 1) return "";
  return "_s" + std::to_string(seed);
}

std::string load_suffix(const std::vector<double>& loads, double load) {
  if (loads.size() <= 1) return "";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_l%g", load * 100.0);
  return buf;
}

}  // namespace

void write_summary_json(const std::string& path, const char* experiment,
                        const std::function<void(obs::JsonWriter&)>& grid) {
  obs::save_artifact(path, [&](std::ostream& out) {
    obs::JsonWriter w(out);
    w.begin_object();
    w.key("experiment").value(experiment);
    w.key("grid").begin_array();
    grid(w);
    w.end_array();
    w.end_object();
    out << "\n";
  });
}

// --- slugs / parsing ------------------------------------------------------

const char* fig2_scheme_slug(Fig2Scheme s) {
  switch (s) {
    case Fig2Scheme::kFifo: return "fifo";
    case Fig2Scheme::kPifoNaive: return "pifo";
    case Fig2Scheme::kQvisor: return "qvisor";
    case Fig2Scheme::kQvisorAdapt: return "qvisor-adapt";
  }
  return "unknown";
}

bool parse_fig2_scheme(const std::string& name, Fig2Scheme* out) {
  for (const Fig2Scheme s : fig2_all_schemes()) {
    if (name == fig2_scheme_slug(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

std::vector<Fig2Scheme> fig2_all_schemes() {
  return {Fig2Scheme::kFifo, Fig2Scheme::kPifoNaive, Fig2Scheme::kQvisor,
          Fig2Scheme::kQvisorAdapt};
}

const char* fig4_scheme_slug(Fig4Scheme s) {
  switch (s) {
    case Fig4Scheme::kFifoBoth: return "fifo";
    case Fig4Scheme::kPifoNaive: return "pifo";
    case Fig4Scheme::kPifoIdeal: return "pifo-ideal";
    case Fig4Scheme::kQvisorEdfOverPfabric: return "qvisor-edf";
    case Fig4Scheme::kQvisorShare: return "qvisor-share";
    case Fig4Scheme::kQvisorPfabricOverEdf: return "qvisor-pfabric";
  }
  return "unknown";
}

bool parse_fig4_scheme(const std::string& name, Fig4Scheme* out) {
  for (const Fig4Scheme s : fig4_all_schemes()) {
    if (name == fig4_scheme_slug(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

std::vector<Fig4Scheme> fig4_all_schemes() {
  return {Fig4Scheme::kFifoBoth,             Fig4Scheme::kPifoNaive,
          Fig4Scheme::kPifoIdeal,            Fig4Scheme::kQvisorEdfOverPfabric,
          Fig4Scheme::kQvisorShare,          Fig4Scheme::kQvisorPfabricOverEdf};
}

std::vector<std::uint64_t> parse_u64_list(const std::string& csv, bool* ok) {
  std::vector<std::uint64_t> out;
  *ok = false;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string tok = csv.substr(pos, comma - pos);
    if (tok.empty()) return {};
    try {
      std::size_t used = 0;
      const unsigned long long v = std::stoull(tok, &used);
      if (used != tok.size()) return {};
      out.push_back(static_cast<std::uint64_t>(v));
    } catch (const std::exception&) {
      return {};
    }
    pos = comma + 1;
    if (comma == csv.size()) break;
  }
  *ok = !out.empty();
  return out;
}

std::vector<double> parse_double_list(const std::string& csv, bool* ok) {
  std::vector<double> out;
  *ok = false;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string tok = csv.substr(pos, comma - pos);
    if (tok.empty()) return {};
    try {
      std::size_t used = 0;
      const double v = std::stod(tok, &used);
      if (used != tok.size()) return {};
      out.push_back(v);
    } catch (const std::exception&) {
      return {};
    }
    pos = comma + 1;
    if (comma == csv.size()) break;
  }
  *ok = !out.empty();
  return out;
}

bool seeds_from_flags(const Flags& flags, const char* prog,
                      std::vector<std::uint64_t>* seeds) {
  const std::string& csv = flags.get_string("seeds");
  if (csv.empty()) {
    *seeds = {static_cast<std::uint64_t>(flags.get_int("seed"))};
    return true;
  }
  bool ok = false;
  *seeds = parse_u64_list(csv, &ok);
  if (!ok) std::fprintf(stderr, "%s: bad --seeds '%s'\n", prog, csv.c_str());
  return ok;
}

// --- fig2 -----------------------------------------------------------------

namespace {
struct Fig2CellOut {
  SweepCell cell;
  Fig2Result result;
  Fig2Scheme scheme = Fig2Scheme::kQvisorAdapt;
  std::uint64_t seed = 0;
};
}  // namespace

std::vector<SweepCell> run_fig2_sweep(const Fig2SweepConfig& sweep) {
  obs::create_artifact_dir(sweep.out_dir);
  const std::size_t cells = sweep.schemes.size() * sweep.seeds.size();
  auto outs = exec::run_sweep<Fig2CellOut>(
      cells,
      [&sweep](std::size_t i) {
        const Fig2Scheme scheme = sweep.schemes[i / sweep.seeds.size()];
        const std::uint64_t seed = sweep.seeds[i % sweep.seeds.size()];
        Fig2CellOut out;
        out.scheme = scheme;
        out.seed = seed;
        out.cell.stem = sweep.out_dir + "/fig2_" + fig2_scheme_slug(scheme) +
                        seed_suffix(sweep.seeds, seed);
        ScopedLogCapture capture(&out.cell.log);
        CellObs cell_obs(sweep.obs);

        Fig2Config config = sweep.base;
        config.scheme = scheme;
        config.seed = seed;
        config.obs = &cell_obs.obs;
        config.flow_csv = out.cell.stem + "_flows.csv";
        out.result = run_fig2(config);
        cell_obs.save(out.cell.stem);

        std::string& s = out.cell.summary;
        appendf(s, "fig2 %s (seed %llu)\n", fig2_scheme_name(scheme),
                static_cast<unsigned long long>(seed));
        appendf(s,
                "  interactive: mean FCT %.3f ms, p99 %.3f ms (%zu flows)\n",
                out.result.interactive_mean_fct_ms,
                out.result.interactive_p99_fct_ms,
                out.result.interactive_flows);
        appendf(s, "  deadline met: %.3f\n", out.result.deadline_met);
        appendf(s, "  background: phase1 %.3f Gb/s, phase2 %.3f Gb/s\n",
                out.result.background_phase1_gbps,
                out.result.background_phase2_gbps);
        appendf(s, "  adaptations: %llu\n",
                static_cast<unsigned long long>(out.result.adaptations));
        appendf(s, "  artifacts: %s_{flows.csv,metrics.json,trace.json}\n",
                out.cell.stem.c_str());
        return out;
      },
      {sweep.jobs});

  write_summary_json(
      sweep.out_dir + "/fig2_summary.json", "fig2",
      [&outs](obs::JsonWriter& w) {
        for (const Fig2CellOut& o : outs) {
          w.begin_object();
          w.key("scheme").value(fig2_scheme_slug(o.scheme));
          w.key("seed").value(o.seed);
          w.key("interactive_mean_fct_ms")
              .value(o.result.interactive_mean_fct_ms);
          w.key("interactive_p99_fct_ms")
              .value(o.result.interactive_p99_fct_ms);
          w.key("interactive_flows")
              .value(static_cast<std::uint64_t>(o.result.interactive_flows));
          w.key("deadline_met").value(o.result.deadline_met);
          w.key("background_phase1_gbps")
              .value(o.result.background_phase1_gbps);
          w.key("background_phase2_gbps")
              .value(o.result.background_phase2_gbps);
          w.key("adaptations").value(o.result.adaptations);
          w.end_object();
        }
      });

  std::vector<SweepCell> result;
  result.reserve(outs.size());
  for (Fig2CellOut& o : outs) result.push_back(std::move(o.cell));
  return result;
}

// --- fig4 -----------------------------------------------------------------

namespace {
struct Fig4CellOut {
  SweepCell cell;
  Fig4Result result;
  Fig4Scheme scheme = Fig4Scheme::kQvisorPfabricOverEdf;
  double load = 0;
  std::uint64_t seed = 0;
};
}  // namespace

std::vector<SweepCell> run_fig4_sweep(const Fig4SweepConfig& sweep) {
  obs::create_artifact_dir(sweep.out_dir);
  const std::size_t per_scheme = sweep.loads.size() * sweep.seeds.size();
  const std::size_t cells = sweep.schemes.size() * per_scheme;
  auto outs = exec::run_sweep<Fig4CellOut>(
      cells,
      [&sweep, per_scheme](std::size_t i) {
        const Fig4Scheme scheme = sweep.schemes[i / per_scheme];
        const double load =
            sweep.loads[(i % per_scheme) / sweep.seeds.size()];
        const std::uint64_t seed = sweep.seeds[i % sweep.seeds.size()];
        Fig4CellOut out;
        out.scheme = scheme;
        out.load = load;
        out.seed = seed;
        out.cell.stem = sweep.out_dir + "/fig4_" + fig4_scheme_slug(scheme) +
                        load_suffix(sweep.loads, load) +
                        seed_suffix(sweep.seeds, seed);
        ScopedLogCapture capture(&out.cell.log);
        CellObs cell_obs(sweep.obs);

        Fig4Config config = sweep.base;
        config.scheme = scheme;
        config.load = load;
        config.seed = seed;
        config.obs = &cell_obs.obs;
        config.flow_csv = out.cell.stem + "_flows.csv";
        out.result = run_fig4(config);
        cell_obs.save(out.cell.stem);

        std::string& s = out.cell.summary;
        appendf(s, "fig4 %s, load %.2f (seed %llu)\n",
                fig4_scheme_name(scheme), load,
                static_cast<unsigned long long>(seed));
        appendf(s,
                "  small flows: mean %.3f ms (lb %.3f), p99 %.3f ms (%zu)\n",
                out.result.mean_small_ms, out.result.mean_small_lb_ms,
                out.result.p99_small_ms, out.result.small_flows);
        appendf(s, "  large flows: mean %.3f ms (lb %.3f) (%zu)\n",
                out.result.mean_large_ms, out.result.mean_large_lb_ms,
                out.result.large_flows);
        appendf(s, "  EDF deadline met: %.3f, drops %llu, events %llu\n",
                out.result.edf_deadline_met,
                static_cast<unsigned long long>(out.result.drops),
                static_cast<unsigned long long>(out.result.events));
        appendf(s, "  artifacts: %s_{flows.csv,metrics.json,trace.json}\n",
                out.cell.stem.c_str());
        return out;
      },
      {sweep.jobs});

  write_summary_json(
      sweep.out_dir + "/fig4_summary.json", "fig4",
      [&outs](obs::JsonWriter& w) {
        for (const Fig4CellOut& o : outs) {
          w.begin_object();
          w.key("scheme").value(fig4_scheme_slug(o.scheme));
          w.key("load").value(o.load);
          w.key("seed").value(o.seed);
          w.key("mean_small_ms").value(o.result.mean_small_ms);
          w.key("mean_small_lb_ms").value(o.result.mean_small_lb_ms);
          w.key("p99_small_ms").value(o.result.p99_small_ms);
          w.key("small_flows")
              .value(static_cast<std::uint64_t>(o.result.small_flows));
          w.key("mean_large_ms").value(o.result.mean_large_ms);
          w.key("mean_large_lb_ms").value(o.result.mean_large_lb_ms);
          w.key("large_flows")
              .value(static_cast<std::uint64_t>(o.result.large_flows));
          w.key("edf_deadline_met").value(o.result.edf_deadline_met);
          w.key("drops").value(o.result.drops);
          w.key("events").value(o.result.events);
          w.end_object();
        }
      });

  std::vector<SweepCell> result;
  result.reserve(outs.size());
  for (Fig4CellOut& o : outs) result.push_back(std::move(o.cell));
  return result;
}

// --- chaos ----------------------------------------------------------------

namespace {
struct ChaosCellOut {
  SweepCell cell;
  ChaosResult result;
  std::uint64_t seed = 0;
};
}  // namespace

std::vector<SweepCell> run_chaos_sweep(const ChaosSweepConfig& sweep) {
  obs::create_artifact_dir(sweep.out_dir);
  auto outs = exec::run_sweep<ChaosCellOut>(
      sweep.seeds.size(),
      [&sweep](std::size_t i) {
        const std::uint64_t seed = sweep.seeds[i];
        ChaosCellOut out;
        out.seed = seed;
        out.cell.stem =
            sweep.out_dir + "/chaos" + seed_suffix(sweep.seeds, seed);
        ScopedLogCapture capture(&out.cell.log);
        CellObs cell_obs(sweep.obs);

        ChaosConfig config = sweep.base;
        config.seed = seed;
        config.obs = &cell_obs.obs;
        out.result = run_chaos(config);
        cell_obs.save(out.cell.stem);

        const ChaosResult& r = out.result;
        out.cell.ok =
            r.conserved && r.epoch_mismatches == 0 && r.epochs_consistent &&
            (!config.control_faults ||
             (r.rollbacks > 0 && r.retries > 0 && r.reconciles > 0));

        std::string& s = out.cell.summary;
        appendf(s, "chaos (seed %llu)\n",
                static_cast<unsigned long long>(seed));
        appendf(s,
                "  offered %llu + injected %llu = delivered %llu + "
                "queue-drop %llu + fault-drop %llu + buffered %llu "
                "(conserved: %s)\n",
                static_cast<unsigned long long>(r.offered_pkts),
                static_cast<unsigned long long>(r.injected_pkts),
                static_cast<unsigned long long>(r.delivered_pkts),
                static_cast<unsigned long long>(r.queue_dropped_pkts),
                static_cast<unsigned long long>(r.fault_dropped_pkts),
                static_cast<unsigned long long>(r.buffered_pkts),
                r.conserved ? "yes" : "NO");
        appendf(s,
                "  link downs/ups %llu/%llu, epoch mismatches %llu, "
                "epochs %s\n",
                static_cast<unsigned long long>(r.link_downs),
                static_cast<unsigned long long>(r.link_ups),
                static_cast<unsigned long long>(r.epoch_mismatches),
                r.epochs_consistent ? "consistent" : "INCONSISTENT");
        appendf(s,
                "  adaptations %llu, retries %llu, rollbacks %llu, "
                "reconciles %llu, degraded %llu/%llu\n",
                static_cast<unsigned long long>(r.adaptations),
                static_cast<unsigned long long>(r.retries),
                static_cast<unsigned long long>(r.rollbacks),
                static_cast<unsigned long long>(r.reconciles),
                static_cast<unsigned long long>(r.degraded_entries),
                static_cast<unsigned long long>(r.recoveries));
        appendf(s, "  plan: %s\n", r.plan_fingerprint.c_str());
        appendf(s, "  artifacts: %s_{metrics.json,trace.json}\n",
                out.cell.stem.c_str());
        return out;
      },
      {sweep.jobs});

  write_summary_json(
      sweep.out_dir + "/chaos_summary.json", "chaos",
      [&outs](obs::JsonWriter& w) {
        for (const ChaosCellOut& o : outs) {
          const ChaosResult& r = o.result;
          w.begin_object();
          w.key("seed").value(o.seed);
          w.key("offered_pkts").value(r.offered_pkts);
          w.key("injected_pkts").value(r.injected_pkts);
          w.key("delivered_pkts").value(r.delivered_pkts);
          w.key("queue_dropped_pkts").value(r.queue_dropped_pkts);
          w.key("fault_dropped_pkts").value(r.fault_dropped_pkts);
          w.key("buffered_pkts").value(r.buffered_pkts);
          w.key("conserved").value(r.conserved);
          w.key("epoch_mismatches").value(r.epoch_mismatches);
          w.key("epochs_consistent").value(r.epochs_consistent);
          w.key("link_downs").value(r.link_downs);
          w.key("adaptations").value(r.adaptations);
          w.key("retries").value(r.retries);
          w.key("rollbacks").value(r.rollbacks);
          w.key("reconciles").value(r.reconciles);
          w.key("degraded_entries").value(r.degraded_entries);
          w.key("recoveries").value(r.recoveries);
          w.key("committed_epoch").value(r.committed_epoch);
          w.key("plan_fingerprint").value(r.plan_fingerprint);
          w.key("ok").value(o.cell.ok);
          w.end_object();
        }
      });

  std::vector<SweepCell> result;
  result.reserve(outs.size());
  for (ChaosCellOut& o : outs) result.push_back(std::move(o.cell));
  return result;
}

// --- overload -------------------------------------------------------------

namespace {
struct OverloadCellOut {
  SweepCell cell;
  OverloadResult result;
  trafficgen::AdversaryMode mode = trafficgen::AdversaryMode::kFlooder;
  std::uint64_t seed = 0;
};

void append_overload_victim(std::string& s, const char* name,
                            const OverloadTenantStats& b,
                            const OverloadTenantStats& a) {
  appendf(s,
          "  %s: delivered %llu -> %llu bytes (%.1f%%), p99 %lld -> "
          "%lld ns\n",
          name, static_cast<unsigned long long>(b.delivered_bytes),
          static_cast<unsigned long long>(a.delivered_bytes),
          b.delivered_bytes == 0
              ? 0.0
              : 100.0 * static_cast<double>(a.delivered_bytes) /
                    static_cast<double>(b.delivered_bytes),
          static_cast<long long>(b.p99_latency),
          static_cast<long long>(a.p99_latency));
}
}  // namespace

std::vector<SweepCell> run_overload_sweep(const OverloadSweepConfig& sweep) {
  obs::create_artifact_dir(sweep.out_dir);
  const std::size_t cells = sweep.modes.size() * sweep.seeds.size();
  auto outs = exec::run_sweep<OverloadCellOut>(
      cells,
      [&sweep](std::size_t i) {
        const trafficgen::AdversaryMode mode =
            sweep.modes[i / sweep.seeds.size()];
        const std::uint64_t seed = sweep.seeds[i % sweep.seeds.size()];
        OverloadCellOut out;
        out.mode = mode;
        out.seed = seed;
        out.cell.stem = sweep.out_dir + "/overload_" +
                        trafficgen::adversary_mode_name(mode) +
                        seed_suffix(sweep.seeds, seed);
        ScopedLogCapture capture(&out.cell.log);
        CellObs cell_obs(sweep.obs);

        OverloadConfig config = sweep.base;
        config.mode = mode;
        config.seed = seed;
        config.obs = &cell_obs.obs;
        out.result = run_overload(config);
        cell_obs.save(out.cell.stem);
        out.cell.ok = out.result.ok;

        const OverloadRun& atk = out.result.attack;
        const OverloadRun& base = out.result.baseline;
        std::string& s = out.cell.summary;
        appendf(s, "overload (mode %s, seed %llu, guard %s)\n",
                trafficgen::adversary_mode_name(mode),
                static_cast<unsigned long long>(seed),
                config.guard ? "on" : "off");
        append_overload_victim(s, "gold  ", base.gold, atk.gold);
        append_overload_victim(s, "silver", base.silver, atk.silver);
        appendf(s,
                "  attacker: offered %llu bytes, admitted %llu bytes, "
                "drops rate/share/quantile %llu/%llu/%llu\n",
                static_cast<unsigned long long>(atk.attacker.offered_bytes),
                static_cast<unsigned long long>(atk.attacker_admitted_bytes),
                static_cast<unsigned long long>(atk.guard_rate_dropped),
                static_cast<unsigned long long>(atk.guard_share_dropped),
                static_cast<unsigned long long>(atk.guard_quantile_dropped));
        appendf(s,
                "  quarantines %llu, unquarantines %llu, spill tracked "
                "max %zu (evictions %llu), monitor tracked max %zu "
                "(untracked %llu)\n",
                static_cast<unsigned long long>(atk.quarantines),
                static_cast<unsigned long long>(atk.unquarantines),
                atk.max_spill_tracked,
                static_cast<unsigned long long>(atk.spill_evictions),
                atk.max_tracked_tenants,
                static_cast<unsigned long long>(atk.untracked_observations));
        appendf(s,
                "  checks: conserved %s/%s, guard-balanced %s, "
                "accounting %s, throughput %s, latency %s, throttled %s, "
                "quarantined %s, bounded %s\n",
                base.conserved ? "yes" : "NO", atk.conserved ? "yes" : "NO",
                atk.guard_balanced ? "yes" : "NO",
                atk.accounting_balanced ? "yes" : "NO",
                out.result.victims_throughput_ok ? "yes" : "NO",
                out.result.victims_latency_ok ? "yes" : "NO",
                out.result.attacker_throttled ? "yes" : "NO",
                out.result.attacker_quarantined ? "yes" : "NO",
                out.result.state_bounded ? "yes" : "NO");
        appendf(s, "  artifacts: %s_{metrics.json,trace.json}\n",
                out.cell.stem.c_str());
        return out;
      },
      {sweep.jobs});

  write_summary_json(
      sweep.out_dir + "/overload_summary.json", "overload",
      [&outs](obs::JsonWriter& w) {
        for (const OverloadCellOut& o : outs) {
          const OverloadRun& atk = o.result.attack;
          w.begin_object();
          w.key("mode").value(trafficgen::adversary_mode_name(o.mode));
          w.key("seed").value(o.seed);
          w.key("gold_delivered_bytes").value(atk.gold.delivered_bytes);
          w.key("silver_delivered_bytes").value(atk.silver.delivered_bytes);
          w.key("attacker_admitted_bytes").value(atk.attacker_admitted_bytes);
          w.key("guard_rate_dropped").value(atk.guard_rate_dropped);
          w.key("guard_share_dropped").value(atk.guard_share_dropped);
          w.key("guard_quantile_dropped").value(atk.guard_quantile_dropped);
          w.key("quarantines").value(atk.quarantines);
          w.key("victims_throughput_ok")
              .value(o.result.victims_throughput_ok);
          w.key("victims_latency_ok").value(o.result.victims_latency_ok);
          w.key("attacker_throttled").value(o.result.attacker_throttled);
          w.key("attacker_quarantined").value(o.result.attacker_quarantined);
          w.key("state_bounded").value(o.result.state_bounded);
          w.key("ok").value(o.result.ok);
          w.end_object();
        }
      });

  std::vector<SweepCell> result;
  result.reserve(outs.size());
  for (OverloadCellOut& o : outs) result.push_back(std::move(o.cell));
  return result;
}

}  // namespace qv::experiments
