#include "experiments/dataplane_chaos.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "exec/sweep.hpp"
#include "experiments/sweeps.hpp"
#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "util/random.hpp"

namespace qv::experiments {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

/// Flatten a run's books into one global-port-ordered vector so two
/// runs compare with a single operator== sweep.
std::vector<dataplane::PortBook> flat_books(
    const dataplane::DataplaneResult& r) {
  std::vector<dataplane::PortBook> books;
  for (const auto& shard : r.shards) {
    books.insert(books.end(), shard.ports.begin(), shard.ports.end());
  }
  return books;
}

/// The injected schedule for one (kind, seed) cell. Every choice
/// derives from the seed so a failing cell replays from its summary
/// line alone.
netsim::FaultPlan make_fault_plan(DataplaneFaultKind kind, std::uint64_t seed,
                                  const dataplane::DataplaneConfig& base) {
  if (kind == DataplaneFaultKind::kRandom) {
    dataplane::RandomDataplaneFaultConfig cfg;
    // Keep poisoned seqs inside the emitted stream so corruption cells
    // exercise quarantine instead of silently missing.
    cfg.max_seq = base.packets_per_port * 3 / 4;
    return dataplane::random_dataplane_fault_plan(seed, base.shards,
                                                  base.ports_per_shard, cfg);
  }
  Rng rng(SplitMix64(seed ^ 0xdc5a0c0de0000001ull).next());
  const auto burst = static_cast<std::uint64_t>(rng.next_in(4, 48));
  netsim::FaultPlan plan;
  switch (kind) {
    case DataplaneFaultKind::kStall:
      // Wedge cap far past the watchdog deadline: the cell only ends
      // quickly if detection actually works.
      for (std::size_t s = 0; s < base.shards; ++s) {
        plan.worker_stall(s, burst + s, seconds(2));
      }
      break;
    case DataplaneFaultKind::kCrash:
      for (std::size_t s = 0; s < base.shards; ++s) {
        plan.worker_crash(s, burst + s);
        plan.worker_crash(s, burst + s + 9);  // recover, then crash again
      }
      break;
    case DataplaneFaultKind::kPoison: {
      const std::size_t ports = base.shards * base.ports_per_shard;
      for (int i = 0; i < 2; ++i) {
        const auto port = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(ports)));
        const auto seq = static_cast<std::uint64_t>(rng.next_in(
            64, static_cast<std::int64_t>(base.packets_per_port) - 64));
        plan.descriptor_corrupt(port, seq);
      }
      break;
    }
    case DataplaneFaultKind::kDesync:
      for (std::size_t s = 0; s < base.shards; ++s) {
        plan.ring_desync(s, burst + s, 8);
      }
      break;
    case DataplaneFaultKind::kRandom:
      break;  // handled above
  }
  return plan;
}

bool kind_activity(DataplaneFaultKind kind, const DataplaneChaosResult& r) {
  switch (kind) {
    case DataplaneFaultKind::kStall:
      return r.stalls >= 1 && r.watchdog_detects >= 1;
    case DataplaneFaultKind::kCrash:
      return r.crashes >= 1 && r.restores >= 1;
    case DataplaneFaultKind::kPoison:
      return r.quarantined >= 1;
    case DataplaneFaultKind::kDesync:
      return r.desyncs >= 1;
    case DataplaneFaultKind::kRandom:
      return r.restores >= 1;
  }
  return false;
}

/// Stall and crash recoveries replay the uncommitted ring region, so
/// the faulted run must land on the fault-free books exactly. Poison
/// removes packets from the stream, desync drains it, and random mixes
/// all four — there balance + bounded loss are the contract instead.
bool is_replay_kind(DataplaneFaultKind kind) {
  return kind == DataplaneFaultKind::kStall ||
         kind == DataplaneFaultKind::kCrash;
}

}  // namespace

const char* dataplane_fault_kind_slug(DataplaneFaultKind k) {
  switch (k) {
    case DataplaneFaultKind::kStall: return "stall";
    case DataplaneFaultKind::kCrash: return "crash";
    case DataplaneFaultKind::kPoison: return "poison";
    case DataplaneFaultKind::kDesync: return "desync";
    case DataplaneFaultKind::kRandom: return "random";
  }
  return "unknown";
}

bool parse_dataplane_fault_kind(const std::string& name,
                                DataplaneFaultKind* out) {
  for (const DataplaneFaultKind k : dataplane_all_fault_kinds()) {
    if (name == dataplane_fault_kind_slug(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

std::vector<DataplaneFaultKind> dataplane_all_fault_kinds() {
  return {DataplaneFaultKind::kStall, DataplaneFaultKind::kCrash,
          DataplaneFaultKind::kPoison, DataplaneFaultKind::kDesync,
          DataplaneFaultKind::kRandom};
}

dataplane::DataplaneConfig dataplane_chaos_base() {
  dataplane::DataplaneConfig config;
  config.shards = 2;
  config.ports_per_shard = 2;
  config.packets_per_port = 4000;
  config.batch = 16;
  config.ring_capacity = 256;
  config.service_depth = 64;
  config.tenants = 4;
  // Fast watchdog: a production 20ms deadline would make every stall
  // cell idle for most of its wall time.
  config.supervision.heartbeat_deadline_ns = milliseconds(5);
  config.supervision.watchdog_poll_ns = microseconds(500);
  config.supervision.checkpoint_interval_bursts = 8;
  return config;
}

DataplaneChaosResult run_dataplane_chaos(const DataplaneChaosConfig& config,
                                         const std::string& metrics_path) {
  // Reference runs: the unsupervised baseline and the supervised
  // fault-free pipeline must produce byte-identical books.
  dataplane::DataplaneConfig plain = config.base;
  plain.seed = config.seed;
  plain.supervision.enabled = false;
  plain.fault_plan = {};
  const auto baseline = run_dataplane(plain);

  dataplane::DataplaneConfig clean = plain;
  clean.supervision.enabled = true;
  const auto supervised = run_dataplane(clean);

  dataplane::DataplaneConfig faulted = clean;
  faulted.fault_plan = make_fault_plan(config.kind, config.seed, config.base);
  const auto chaotic = run_dataplane(faulted);

  DataplaneChaosResult out;
  const dataplane::PortBook total = chaotic.book();
  out.generated = total.generated;
  out.processed = total.processed;
  out.quarantined = total.quarantined;
  out.lost_in_flight = total.lost_in_flight;
  const dataplane::SupervisionStats sup = chaotic.supervision();
  out.checkpoints = sup.checkpoints;
  out.restores = sup.restores;
  out.stalls = sup.stalls;
  out.crashes = sup.crashes;
  out.poison_faults = sup.poison_faults;
  out.desyncs = sup.desyncs;
  out.watchdog_detects = chaotic.watchdog_detects;
  out.loss_bound = config.base.ring_capacity + config.base.batch;

  std::uint64_t itemized = 0;
  for (const auto& shard : chaotic.shards) {
    out.recoveries.insert(out.recoveries.end(), shard.recoveries.begin(),
                          shard.recoveries.end());
    out.quarantine.insert(out.quarantine.end(), shard.quarantine.begin(),
                          shard.quarantine.end());
  }
  for (const auto& rec : out.recoveries) {
    out.max_restore_ns = std::max(out.max_restore_ns, rec.restore_ns);
    out.max_lost_per_recovery = std::max(out.max_lost_per_recovery, rec.lost);
    itemized += rec.lost;
  }
  out.recovery_count = out.recoveries.size();

  out.balanced = chaotic.balanced;
  out.faultfree_identical = flat_books(supervised) == flat_books(baseline);
  out.replay_identical = !is_replay_kind(config.kind) ||
                         flat_books(chaotic) == flat_books(baseline);
  // Every lost packet is itemized by exactly one recovery, and no
  // recovery discards more than one full ring plus the burst in hand.
  out.loss_bounded = out.max_lost_per_recovery <= out.loss_bound &&
                     itemized == out.lost_in_flight;
  out.recovery_bounded = out.max_restore_ns <= config.max_recovery_ns;
  out.activity_seen = kind_activity(config.kind, out);
  out.ok = out.balanced && out.faultfree_identical && out.replay_identical &&
           out.loss_bounded && out.recovery_bounded && out.activity_seen;

  if (!metrics_path.empty()) {
    obs::Registry reg;
    chaotic.export_metrics(reg);
    obs::save_metrics_json(metrics_path, reg);
  }
  return out;
}

void write_dataplane_chaos_trace(const std::string& path,
                                 const DataplaneChaosResult& result) {
  obs::Tracer tracer(result.recoveries.size() + result.quarantine.size());
  tracer.set_mask(obs::trace_bit(obs::TraceCategory::kDataplane));
  std::int64_t base_ns = 0;
  for (const auto& rec : result.recoveries) {
    if (base_ns == 0 || rec.start_ns < base_ns) base_ns = rec.start_ns;
  }
  for (const auto& rec : result.recoveries) {
    const auto tid = static_cast<std::uint32_t>(rec.shard);
    tracer.set_thread_name(tid, "shard" + std::to_string(rec.shard));
    const std::string name =
        std::string("recover:") + dataplane::recovery_cause_name(rec.cause);
    tracer.complete(obs::TraceCategory::kDataplane, tracer.intern(name),
                    rec.start_ns - base_ns, rec.restore_ns, tid,
                    {{"at_burst", rec.at_burst},
                     {"lost", rec.lost},
                     {"drained", rec.drained, /*boolean=*/true}});
  }
  for (const auto& q : result.quarantine) {
    // The verdict lands at the end of that shard's LAST poison restore
    // (the restore that tipped the packet over quarantine_after).
    TimeNs ts = 0;
    for (const auto& rec : result.recoveries) {
      if (rec.shard == q.shard &&
          rec.cause == dataplane::RecoveryRecord::Cause::kPoison) {
        ts = rec.start_ns - base_ns + rec.restore_ns;
      }
    }
    tracer.instant(obs::TraceCategory::kDataplane, "quarantine", ts,
                   static_cast<std::uint32_t>(q.shard),
                   {{"port", q.port},
                    {"seq", q.seq},
                    {"tenant", q.tenant},
                    {"faults", static_cast<std::uint64_t>(q.faults)}});
  }
  obs::save_trace_json(path, tracer);
}

std::vector<DataplaneChaosCell> run_dataplane_chaos_sweep(
    const DataplaneChaosSweepConfig& sweep) {
  obs::create_artifact_dir(sweep.out_dir);
  const std::size_t cells = sweep.kinds.size() * sweep.seeds.size();
  auto outs = exec::run_sweep<DataplaneChaosCell>(
      cells,
      [&sweep](std::size_t i) {
        const DataplaneFaultKind kind = sweep.kinds[i / sweep.seeds.size()];
        const std::uint64_t seed = sweep.seeds[i % sweep.seeds.size()];
        DataplaneChaosCell cell;
        cell.stem = sweep.out_dir + "/dpchaos_" +
                    dataplane_fault_kind_slug(kind);
        if (sweep.seeds.size() > 1) {
          cell.stem += "_s" + std::to_string(seed);
        }

        DataplaneChaosConfig config = sweep.base;
        config.kind = kind;
        config.seed = seed;
        cell.result = run_dataplane_chaos(config, cell.stem + "_metrics.json");
        write_dataplane_chaos_trace(cell.stem + "_trace.json", cell.result);
        cell.ok = cell.result.ok;

        const DataplaneChaosResult& r = cell.result;
        std::string& s = cell.summary;
        appendf(s, "dpchaos %s (seed %llu)\n", dataplane_fault_kind_slug(kind),
                static_cast<unsigned long long>(seed));
        appendf(s,
                "  generated %llu = processed %llu + quarantined %llu + "
                "lost %llu (balanced: %s)\n",
                static_cast<unsigned long long>(r.generated),
                static_cast<unsigned long long>(r.processed),
                static_cast<unsigned long long>(r.quarantined),
                static_cast<unsigned long long>(r.lost_in_flight),
                r.balanced ? "yes" : "NO");
        appendf(s,
                "  restores %llu (stall %llu, crash %llu, poison %llu, "
                "desync %llu), watchdog detects %llu, checkpoints %llu\n",
                static_cast<unsigned long long>(r.restores),
                static_cast<unsigned long long>(r.stalls),
                static_cast<unsigned long long>(r.crashes),
                static_cast<unsigned long long>(r.poison_faults),
                static_cast<unsigned long long>(r.desyncs),
                static_cast<unsigned long long>(r.watchdog_detects),
                static_cast<unsigned long long>(r.checkpoints));
        appendf(s,
                "  fault-free identical: %s, replay identical: %s, loss "
                "%llu/%llu per recovery (bounded: %s), slowest restore "
                "%.3f ms (bounded: %s), activity: %s\n",
                r.faultfree_identical ? "yes" : "NO",
                r.replay_identical ? "yes" : "NO",
                static_cast<unsigned long long>(r.max_lost_per_recovery),
                static_cast<unsigned long long>(r.loss_bound),
                r.loss_bounded ? "yes" : "NO",
                static_cast<double>(r.max_restore_ns) / 1e6,
                r.recovery_bounded ? "yes" : "NO",
                r.activity_seen ? "yes" : "NO");
        appendf(s, "  artifacts: %s_{metrics.json,trace.json}\n",
                cell.stem.c_str());
        return cell;
      },
      {sweep.jobs});

  write_summary_json(
      sweep.out_dir + "/dpchaos_summary.json", "dpchaos",
      [&sweep, &outs](obs::JsonWriter& w) {
        for (std::size_t i = 0; i < outs.size(); ++i) {
          const DataplaneChaosResult& r = outs[i].result;
          w.begin_object();
          w.key("kind").value(
              dataplane_fault_kind_slug(sweep.kinds[i / sweep.seeds.size()]));
          w.key("seed").value(sweep.seeds[i % sweep.seeds.size()]);
          w.key("generated").value(r.generated);
          w.key("processed").value(r.processed);
          w.key("quarantined").value(r.quarantined);
          w.key("lost_in_flight").value(r.lost_in_flight);
          w.key("checkpoints").value(r.checkpoints);
          w.key("restores").value(r.restores);
          w.key("watchdog_detects").value(r.watchdog_detects);
          w.key("recoveries").value(r.recovery_count);
          w.key("max_lost_per_recovery").value(r.max_lost_per_recovery);
          w.key("loss_bound").value(r.loss_bound);
          w.key("balanced").value(r.balanced);
          w.key("faultfree_identical").value(r.faultfree_identical);
          w.key("replay_identical").value(r.replay_identical);
          w.key("loss_bounded").value(r.loss_bounded);
          w.key("recovery_bounded").value(r.recovery_bounded);
          w.key("activity_seen").value(r.activity_seen);
          w.key("ok").value(outs[i].ok);
          w.end_object();
        }
      });
  return outs;
}

}  // namespace qv::experiments
