#include "experiments/rollout_chaos.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "exec/sweep.hpp"
#include "obs/json_writer.hpp"
#include "obs/obs.hpp"
#include "qvisor/backend.hpp"
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

/// The random kind resolves to one concrete behaviour per seed, so a
/// failing random cell replays from its summary line alone.
RolloutFaultKind resolve_kind(RolloutFaultKind kind, std::uint64_t seed) {
  if (kind != RolloutFaultKind::kRandom) return kind;
  Rng rng(SplitMix64(seed ^ 0x9051c4a05f00d001ull).next());
  switch (rng.next_below(4)) {
    case 0: return RolloutFaultKind::kClean;
    case 1: return RolloutFaultKind::kUnreachable;
    case 2: return RolloutFaultKind::kCanarySlo;
    default: return RolloutFaultKind::kStoreCrash;
  }
}

// --- operator documents ---------------------------------------------------
//
// Three tenant classes with one representative each (the probe
// workload's tenants): gold is the protected tier the SLO defends.

constexpr char kPolicyV1[] =
    "group gold   = 0..15 bounds 0..255\n"
    "group silver = 16..63\n"
    "group bronze = 64..127\n"
    "policy gold >> silver + bronze\n";

/// Benign candidate: bronze grows, tier layout unchanged — the
/// incremental wave path.
constexpr char kPolicyV2Good[] =
    "group gold   = 0..15 bounds 0..255\n"
    "group silver = 16..63\n"
    "group bronze = 64..191\n"
    "policy gold >> silver + bronze\n";

/// Regressing candidate: the protected tier demoted to the bottom.
/// Victims still come from the LKG top tier (gold), so the canary
/// probe's victim share collapses and the rollout must abort.
constexpr char kPolicyV2Bad[] =
    "group gold   = 0..15 bounds 0..255\n"
    "group silver = 16..63\n"
    "group bronze = 64..127\n"
    "policy silver + bronze >> gold\n";

mgmt::JsonValue contracts_doc() {
  mgmt::JsonValue::Array arr;
  for (const std::uint32_t tenant : {0u, 16u, 64u}) {
    mgmt::JsonValue c = mgmt::JsonValue::make_object();
    c.set("tenant", mgmt::JsonValue(static_cast<std::int64_t>(tenant)));
    c.set("rank_min", mgmt::JsonValue(std::int64_t{0}));
    c.set("rank_max", mgmt::JsonValue(std::int64_t{1023}));
    c.set("max_rate", mgmt::JsonValue(std::int64_t{0}));  // unpoliced
    arr.push_back(std::move(c));
  }
  mgmt::JsonValue doc = mgmt::JsonValue::make_object();
  doc.set("kind", mgmt::JsonValue("contracts"));
  doc.set("contracts", mgmt::JsonValue(std::move(arr)));
  return doc;
}

mgmt::JsonValue topology_doc(const RolloutChaosConfig& config) {
  mgmt::JsonValue::Array switches;
  for (std::size_t i = 0; i < config.switches; ++i) {
    mgmt::JsonValue sw = mgmt::JsonValue::make_object();
    sw.set("name", mgmt::JsonValue("sw" + std::to_string(i)));
    switches.push_back(std::move(sw));
  }
  mgmt::JsonValue doc = mgmt::JsonValue::make_object();
  doc.set("kind", mgmt::JsonValue("topology"));
  doc.set("switches", mgmt::JsonValue(std::move(switches)));
  doc.set("canary",
          mgmt::JsonValue(static_cast<std::int64_t>(config.canary)));
  doc.set("wave_size",
          mgmt::JsonValue(static_cast<std::int64_t>(config.wave_size)));
  return doc;
}

mgmt::JsonValue policy_doc(const char* text, const char* description) {
  mgmt::JsonValue doc = mgmt::JsonValue::make_object();
  doc.set("kind", mgmt::JsonValue("policy"));
  doc.set("policy", mgmt::JsonValue(text));
  doc.set("description", mgmt::JsonValue(description));
  return doc;
}

}  // namespace

const char* rollout_fault_kind_slug(RolloutFaultKind k) {
  switch (k) {
    case RolloutFaultKind::kClean: return "clean";
    case RolloutFaultKind::kUnreachable: return "unreachable";
    case RolloutFaultKind::kCanarySlo: return "canary-slo";
    case RolloutFaultKind::kStoreCrash: return "store-crash";
    case RolloutFaultKind::kRandom: return "random";
  }
  return "unknown";
}

bool parse_rollout_fault_kind(const std::string& name,
                              RolloutFaultKind* out) {
  for (const RolloutFaultKind k : rollout_all_fault_kinds()) {
    if (name == rollout_fault_kind_slug(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

std::vector<RolloutFaultKind> rollout_all_fault_kinds() {
  return {RolloutFaultKind::kClean, RolloutFaultKind::kUnreachable,
          RolloutFaultKind::kCanarySlo, RolloutFaultKind::kStoreCrash,
          RolloutFaultKind::kRandom};
}

RolloutChaosResult run_rollout_chaos(const RolloutChaosConfig& config,
                                     const std::string& metrics_path,
                                     const std::string& trace_path) {
  if (config.store_dir.empty()) {
    throw std::runtime_error("rollout_chaos: store_dir is required");
  }
  const RolloutFaultKind kind = resolve_kind(config.kind, config.seed);
  RolloutChaosResult out;

  // Fresh store per cell: the contract compares against exactly the
  // documents this run accepts.
  std::error_code ec;
  std::filesystem::remove_all(config.store_dir, ec);
  auto store = std::make_unique<mgmt::ConfigStore>(config.store_dir);
  if (!store->ok()) {
    throw std::runtime_error("rollout_chaos: store open failed: " +
                             store->error());
  }

  const auto must_put = [&store](mgmt::DocKind k, const mgmt::JsonValue& doc) {
    const mgmt::PutResult pr = store->put(k, doc);
    if (!pr.acked) {
      throw std::runtime_error("rollout_chaos: seed document rejected: " +
                               pr.error);
    }
    return pr.id;
  };
  must_put(mgmt::DocKind::kContracts, contracts_doc());
  must_put(mgmt::DocKind::kTopology, topology_doc(config));
  out.baseline_version =
      must_put(mgmt::DocKind::kPolicy, policy_doc(kPolicyV1, "baseline"));
  std::string err;
  if (!store->mark_good(out.baseline_version, &err)) {
    throw std::runtime_error("rollout_chaos: cannot mark baseline LKG: " +
                             err);
  }

  // Build the fleet FROM the store's documents (the read path the
  // management plane actually serves).
  const mgmt::StoreVersion* topo = store->head(mgmt::DocKind::kTopology);
  const mgmt::JsonValue topo_doc = topo->parse();
  qvisor::Fleet fleet({}, qvisor::OperatorPolicy{},
                      std::make_shared<qvisor::PifoBackend>());
  for (const auto& sw : topo_doc.find("switches")->as_array()) {
    fleet.add_switch(sw.find("name")->as_string());
  }
  const mgmt::JsonValue contracts_parsed =
      store->head(mgmt::DocKind::kContracts)->parse();
  for (const auto& c : contracts_parsed.find("contracts")->as_array()) {
    qvisor::TenantContract tc;
    tc.tenant = static_cast<TenantId>(c.find("tenant")->as_int());
    if (const auto* v = c.find("rank_min")) {
      tc.rank_min = static_cast<Rank>(v->as_int());
    }
    if (const auto* v = c.find("rank_max")) {
      tc.rank_max = static_cast<Rank>(v->as_int());
    }
    if (const auto* v = c.find("max_rate")) tc.max_rate = v->as_int();
    if (const auto* v = c.find("burst_bytes")) {
      tc.burst_bytes = v->as_int();
    }
    fleet.set_contract(tc);
  }

  obs::Tracer tracer(1u << 16);
  tracer.set_mask(obs::trace_bit(obs::TraceCategory::kMgmt) |
                  obs::trace_bit(obs::TraceCategory::kRuntime));
  fleet.set_tracer(&tracer);

  control::ControlPlane cp(fleet);
  const mgmt::JsonValue v1 =
      store->get(out.baseline_version)->parse();
  const auto boot = cp.deploy_text(v1.find("policy")->as_string());
  if (!boot.ok) {
    throw std::runtime_error("rollout_chaos: bootstrap deploy failed: " +
                             boot.error);
  }

  // --- put the candidate (pillar-3 fault site #3: store crash) ----------
  const char* v2_text =
      kind == RolloutFaultKind::kCanarySlo ? kPolicyV2Bad : kPolicyV2Good;
  const mgmt::JsonValue v2 = policy_doc(v2_text, "candidate");
  bool crash_unacked = false;
  bool crash_torn_seen = false;
  out.store_recovery_identical = true;
  if (kind == RolloutFaultKind::kStoreCrash) {
    // Crash between journal append and commit-ack: only the first
    // 1..63 bytes of the frame persist (the header alone is 16, so the
    // tail is always torn, never merely missing).
    const std::string before = store->serialize();
    store->set_torn_write(1 + config.seed % 63);
    const mgmt::PutResult torn = store->put(mgmt::DocKind::kPolicy, v2);
    crash_unacked = !torn.acked;
    // Reopen from the crash point: replay must discard the torn tail
    // and land byte-identical to the last acked state.
    store.reset();
    store = std::make_unique<mgmt::ConfigStore>(config.store_dir);
    crash_torn_seen = store->journal_had_torn_tail();
    out.store_recovery_identical =
        store->ok() && store->serialize() == before;
  }
  const mgmt::PutResult put2 = store->put(mgmt::DocKind::kPolicy, v2);
  if (!put2.acked) {
    throw std::runtime_error("rollout_chaos: candidate put rejected: " +
                             put2.error);
  }
  out.candidate_version = put2.id;

  // --- install fault (pillar-3 fault site #1: unreachable switch) -------
  // Reject the first K install RPCs to one non-canary switch. The wave
  // loop makes wave_retry_budget + 1 attempts, one install call per
  // attempt, so K <= budget commits on a retry and K > budget aborts.
  const std::size_t budget = config.wave_retry_budget;
  auto rejections = std::make_shared<std::uint64_t>(0);
  bool expect_commit = true;
  if (kind == RolloutFaultKind::kUnreachable) {
    const std::size_t target =
        config.canary + config.seed % (config.switches - config.canary);
    const std::uint64_t reject_calls = 1 + config.seed % (budget + 2);
    expect_commit = reject_calls <= budget;
    fleet.set_install_fault(
        [target, reject_calls, rejections](std::size_t idx, std::uint64_t) {
          if (idx != target) return false;
          if (*rejections >= reject_calls) return false;
          ++*rejections;
          return true;
        });
  } else if (kind == RolloutFaultKind::kCanarySlo) {
    expect_commit = false;
  }

  mgmt::RolloutConfig rcfg;
  rcfg.canary = static_cast<std::size_t>(topo_doc.find("canary")->as_int());
  rcfg.wave_size =
      static_cast<std::size_t>(topo_doc.find("wave_size")->as_int());
  rcfg.wave_retry_budget = budget;
  rcfg.probe.seed = config.seed;
  mgmt::RolloutEngine engine(cp, *store, rcfg);
  engine.set_tracer(&tracer);

  out.report = engine.rollout(out.candidate_version);
  out.install_rejections = *rejections;
  out.expected_commit = expect_commit;
  out.final_lkg = store->lkg_id(mgmt::DocKind::kPolicy);
  out.store_versions = store->version_count();

  // --- verdicts ----------------------------------------------------------
  const mgmt::RolloutReport& rep = out.report;
  const bool committed = rep.outcome == mgmt::RolloutOutcome::kCommitted;
  const bool aborted = rep.outcome == mgmt::RolloutOutcome::kAborted;
  out.outcome_as_expected =
      rep.ok && (expect_commit ? committed : aborted);
  out.single_version =
      rep.converged && rep.on_lkg && !fleet.has_staged();
  out.canary_gated =
      kind != RolloutFaultKind::kCanarySlo ||
      (aborted && rep.waves.size() == 1 &&
       rep.switches_touched <= rcfg.canary);
  out.lkg_pointer_correct =
      out.final_lkg ==
      (committed ? out.candidate_version : out.baseline_version);
  if (kind == RolloutFaultKind::kStoreCrash) {
    out.store_recovery_identical =
        out.store_recovery_identical && crash_unacked && crash_torn_seen;
  }
  out.zero_epoch_mismatches = rep.epoch_mismatch_packets == 0;
  switch (kind) {
    case RolloutFaultKind::kClean:
      out.activity_seen = committed && rep.waves.size() > 1 &&
                          !rep.probes.empty();
      break;
    case RolloutFaultKind::kUnreachable:
      out.activity_seen = out.install_rejections >= 1;
      break;
    case RolloutFaultKind::kCanarySlo: {
      bool probe_failed = false;
      for (const auto& p : rep.probes) probe_failed |= !p.pass;
      out.activity_seen = probe_failed;
      break;
    }
    case RolloutFaultKind::kStoreCrash:
      out.activity_seen = crash_unacked && crash_torn_seen;
      break;
    case RolloutFaultKind::kRandom:
      break;  // resolved above
  }
  out.ok = out.outcome_as_expected && out.single_version &&
           out.canary_gated && out.lkg_pointer_correct &&
           out.store_recovery_identical && out.zero_epoch_mismatches &&
           out.activity_seen;

  if (!metrics_path.empty()) {
    obs::Registry reg;
    fleet.export_metrics(reg, "fleet");
    cp.export_metrics(reg, "control");
    reg.set_gauge("store.versions",
                  static_cast<double>(out.store_versions));
    reg.set_gauge("store.journal_bytes",
                  static_cast<double>(store->journal_bytes()));
    reg.set_gauge("store.lkg_policy", static_cast<double>(out.final_lkg));
    reg.set_gauge("rollout.waves", static_cast<double>(rep.waves.size()));
    reg.set_gauge("rollout.probes", static_cast<double>(rep.probes.size()));
    reg.set_gauge("rollout.switches_touched",
                  static_cast<double>(rep.switches_touched));
    reg.set_gauge("rollout.reconcile_passes",
                  static_cast<double>(rep.reconcile_passes));
    obs::save_metrics_json(metrics_path, reg);
  }
  if (!trace_path.empty()) {
    obs::save_trace_json(trace_path, tracer);
  }
  return out;
}

std::vector<RolloutChaosCell> run_rollout_chaos_sweep(
    const RolloutChaosSweepConfig& sweep) {
  obs::create_artifact_dir(sweep.out_dir);
  const std::size_t cells = sweep.kinds.size() * sweep.seeds.size();
  auto outs = exec::run_sweep<RolloutChaosCell>(
      cells,
      [&sweep](std::size_t i) {
        const RolloutFaultKind kind = sweep.kinds[i / sweep.seeds.size()];
        const std::uint64_t seed = sweep.seeds[i % sweep.seeds.size()];
        RolloutChaosCell cell;
        cell.stem =
            sweep.out_dir + "/rollout_" + rollout_fault_kind_slug(kind);
        if (sweep.seeds.size() > 1) {
          cell.stem += "_s" + std::to_string(seed);
        }

        RolloutChaosConfig config = sweep.base;
        config.kind = kind;
        config.seed = seed;
        config.store_dir = cell.stem + "_store";
        cell.result = run_rollout_chaos(config, cell.stem + "_metrics.json",
                                        cell.stem + "_trace.json");
        cell.ok = cell.result.ok;

        const RolloutChaosResult& r = cell.result;
        const mgmt::RolloutReport& rep = r.report;
        std::string& s = cell.summary;
        appendf(s, "rollout %s (seed %llu)\n", rollout_fault_kind_slug(kind),
                static_cast<unsigned long long>(seed));
        appendf(s,
                "  v%llu -> v%llu: %s after %zu waves, %zu probes, "
                "%zu switches touched (expected %s: %s)\n",
                static_cast<unsigned long long>(r.baseline_version),
                static_cast<unsigned long long>(r.candidate_version),
                rep.outcome == mgmt::RolloutOutcome::kCommitted
                    ? "COMMITTED"
                    : rep.outcome == mgmt::RolloutOutcome::kAborted
                          ? "ABORTED"
                          : "REJECTED",
                rep.waves.size(), rep.probes.size(), rep.switches_touched,
                r.expected_commit ? "commit" : "abort",
                r.outcome_as_expected ? "yes" : "NO");
        if (!rep.abort_reason.empty()) {
          appendf(s, "  abort reason: %s\n", rep.abort_reason.c_str());
        }
        appendf(s,
                "  single-version: %s (fleet digest %016llx, expected plan "
                "fp %016llx, %zu reconcile passes), canary-gated: %s\n",
                r.single_version ? "yes" : "NO",
                static_cast<unsigned long long>(rep.fleet_fingerprint),
                static_cast<unsigned long long>(rep.expected_fingerprint),
                rep.reconcile_passes, r.canary_gated ? "yes" : "NO");
        appendf(s,
                "  lkg pointer v%llu (correct: %s), store recovery "
                "identical: %s, epoch-mismatch packets %llu (zero: %s), "
                "install rejects %llu, activity: %s\n",
                static_cast<unsigned long long>(r.final_lkg),
                r.lkg_pointer_correct ? "yes" : "NO",
                r.store_recovery_identical ? "yes" : "NO",
                static_cast<unsigned long long>(rep.epoch_mismatch_packets),
                r.zero_epoch_mismatches ? "yes" : "NO",
                static_cast<unsigned long long>(r.install_rejections),
                r.activity_seen ? "yes" : "NO");
        appendf(s, "  artifacts: %s_{metrics.json,trace.json,store/}\n",
                cell.stem.c_str());
        return cell;
      },
      {sweep.jobs});

  std::ofstream summary(sweep.out_dir + "/rollout_chaos_summary.json");
  if (!summary) {
    throw std::runtime_error("cannot write " + sweep.out_dir +
                             "/rollout_chaos_summary.json");
  }
  obs::JsonWriter w(summary);
  w.begin_object();
  w.key("experiment").value("rollout_chaos");
  w.key("grid").begin_array();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const RolloutChaosResult& r = outs[i].result;
    const mgmt::RolloutReport& rep = r.report;
    w.begin_object();
    w.key("kind").value(
        rollout_fault_kind_slug(sweep.kinds[i / sweep.seeds.size()]));
    w.key("seed").value(sweep.seeds[i % sweep.seeds.size()]);
    w.key("outcome").value(
        rep.outcome == mgmt::RolloutOutcome::kCommitted
            ? "committed"
            : rep.outcome == mgmt::RolloutOutcome::kAborted ? "aborted"
                                                            : "rejected");
    w.key("baseline_version").value(r.baseline_version);
    w.key("candidate_version").value(r.candidate_version);
    w.key("final_lkg").value(r.final_lkg);
    w.key("store_versions").value(r.store_versions);
    w.key("waves").value(static_cast<std::uint64_t>(rep.waves.size()));
    w.key("probes").value(static_cast<std::uint64_t>(rep.probes.size()));
    w.key("switches_touched")
        .value(static_cast<std::uint64_t>(rep.switches_touched));
    w.key("reconcile_passes")
        .value(static_cast<std::uint64_t>(rep.reconcile_passes));
    w.key("install_rejections").value(r.install_rejections);
    w.key("epoch_mismatch_packets").value(rep.epoch_mismatch_packets);
    w.key("expected_commit").value(r.expected_commit);
    w.key("outcome_as_expected").value(r.outcome_as_expected);
    w.key("single_version").value(r.single_version);
    w.key("canary_gated").value(r.canary_gated);
    w.key("lkg_pointer_correct").value(r.lkg_pointer_correct);
    w.key("store_recovery_identical").value(r.store_recovery_identical);
    w.key("zero_epoch_mismatches").value(r.zero_epoch_mismatches);
    w.key("activity_seen").value(r.activity_seen);
    w.key("ok").value(outs[i].ok);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  summary << "\n";
  return outs;
}

}  // namespace qv::experiments
