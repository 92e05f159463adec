// The control and management planes at 1M tenants: one operator
// issuing work back to back (closed loop) against a 16-switch fleet
// whose policy partitions 1M tenant ids into 64 groups. Each round is
// a burst of deploys through ControlPlane::deploy (about 95% one-group
// weight edits, 5% boundary moves that rebuild the tenant index)
// followed by one canary-then-wave rollout of a further edit, put as a
// new version into an fsync'd ConfigStore.
//
// The traced stream drives the same edits through the public steps
// instead: GroupCompiler::compile and diff_group_plans beside each
// deploy, and stage / commit_wave / probe_switch / finalize_staged /
// mark_good in place of RolloutEngine::rollout.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "control/control_plane.hpp"
#include "mgmt/config_store.hpp"
#include "mgmt/rollout.hpp"
#include "parts.hpp"
#include "qvisor/backend.hpp"
#include "util/random.hpp"

namespace perfbench {

std::string g_work_dir = ".";

namespace {

using qv::control::ControlPlane;
using qv::control::GroupedPolicy;

constexpr std::size_t kTenants = 1'000'000;
constexpr std::size_t kGroups = 64;
constexpr std::size_t kSwitches = 16;
constexpr std::size_t kDeploysPerRound = 20;
constexpr double kMoveShare = 0.05;

/// g0 alone in the protected top tier (the rollout probes' victims),
/// the other 63 groups sharing the second tier.
GroupedPolicy base_policy() {
  std::string text;
  for (std::size_t g = 0; g < kGroups; ++g) {
    text += "group g" + std::to_string(g) + " = " +
            std::to_string(g * kTenants / kGroups) + ".." +
            std::to_string((g + 1) * kTenants / kGroups - 1) +
            " bounds 0..99\n";
  }
  text += "policy g0 >>";
  for (std::size_t g = 1; g < kGroups; ++g) {
    text += (g == 1 ? " g" : " + g") + std::to_string(g);
  }
  text += "\n";
  auto parsed = qv::control::parse_grouped_policy(text);
  if (!parsed.ok()) throw std::runtime_error("base policy: " + parsed.error);
  return *parsed.value;
}

enum class EditKind { kWeight, kMove };

/// The operator's edit stream, derived from the workload seed alone.
class EditStream {
 public:
  EditStream(std::uint64_t seed, GroupedPolicy base)
      : rng_(seed ^ 0xc0472011ull), policy_(std::move(base)) {}

  /// The next policy; it becomes current.
  const GroupedPolicy& next(EditKind* kind) {
    if (rng_.next_double() < kMoveShare) {
      *kind = EditKind::kMove;
      // Move the boundary between groups b and b+1, keeping both
      // non-empty and the partition contiguous.
      const std::size_t b = rng_.next_below(kGroups - 1);
      auto& left = policy_.groups[b].spans.front();
      auto& right = policy_.groups[b + 1].spans.front();
      const auto shift = static_cast<std::int64_t>(rng_.next_below(1000)) + 1;
      std::int64_t hi = static_cast<std::int64_t>(left.hi) +
                        (rng_.next_double() < 0.5 ? -shift : shift);
      hi = std::clamp<std::int64_t>(hi, left.lo,
                                    static_cast<std::int64_t>(right.hi) - 1);
      if (hi == static_cast<std::int64_t>(left.hi)) {
        hi = hi > static_cast<std::int64_t>(left.lo) ? hi - 1 : hi + 1;
      }
      left.hi = static_cast<qv::TenantId>(hi);
      right.lo = static_cast<qv::TenantId>(hi + 1);
    } else {
      *kind = EditKind::kWeight;
      const std::size_t g = 1 + rng_.next_below(kGroups - 1);
      double& w = policy_.groups[g].weight;
      w = 1.0 + static_cast<double>((static_cast<std::uint64_t>(w) +
                                     rng_.next_below(3)) % 4);
    }
    return policy_;
  }

 private:
  qv::Rng rng_;
  GroupedPolicy policy_;
};

qv::mgmt::JsonValue policy_doc(const GroupedPolicy& policy) {
  qv::mgmt::JsonValue doc = qv::mgmt::JsonValue::make_object();
  doc.set("kind", qv::mgmt::JsonValue("policy"));
  doc.set("policy", qv::mgmt::JsonValue(policy.to_string()));
  doc.set("description", qv::mgmt::JsonValue("perfbench edit"));
  return doc;
}

/// A bootstrapped fleet: store holding the base policy as
/// last-known-good, and the base plan deployed on every switch.
class ControlRig {
 public:
  ControlRig(std::uint64_t seed, const GroupedPolicy& base)
      : fleet_({}, qv::qvisor::OperatorPolicy{},
               std::make_shared<qv::qvisor::PifoBackend>()),
        cp_(fleet_) {
    static int serial = 0;
    dir_ = g_work_dir + "/perfbench-store-" + std::to_string(::getpid()) +
           "-" + std::to_string(serial++);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(g_work_dir);
    store_ = std::make_unique<qv::mgmt::ConfigStore>(dir_);
    if (!store_->ok()) throw std::runtime_error("store: " + store_->error());
    for (std::size_t s = 0; s < kSwitches; ++s) {
      fleet_.add_switch("sw" + std::to_string(s));
    }
    const qv::mgmt::PutResult put =
        store_->put(qv::mgmt::DocKind::kPolicy, policy_doc(base));
    std::string err;
    if (!put.acked || !store_->mark_good(put.id, &err)) {
      throw std::runtime_error("store bootstrap: " + put.error + err);
    }
    const auto boot = cp_.deploy(base);
    if (!boot.ok) throw std::runtime_error("bootstrap deploy: " + boot.error);
    qv::mgmt::RolloutConfig rcfg;
    rcfg.probe.seed = seed;
    engine_ = std::make_unique<qv::mgmt::RolloutEngine>(cp_, *store_, rcfg);
  }
  ~ControlRig() {
    engine_.reset();
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ControlRig(const ControlRig&) = delete;
  ControlRig& operator=(const ControlRig&) = delete;

  qv::qvisor::Fleet& fleet() { return fleet_; }
  ControlPlane& cp() { return cp_; }
  qv::mgmt::ConfigStore& store() { return *store_; }
  qv::mgmt::RolloutEngine& engine() { return *engine_; }

  /// Cohorts in RolloutEngine's wave order: the canary, then waves of
  /// wave_size.
  std::vector<std::vector<std::size_t>> waves() const {
    std::vector<std::vector<std::size_t>> out;
    const auto& cfg = engine_->config();
    for (std::size_t at = 0; at < kSwitches;) {
      const std::size_t size = std::min(
          out.empty() ? cfg.canary : cfg.wave_size, kSwitches - at);
      std::vector<std::size_t> cohort;
      for (std::size_t i = 0; i < size; ++i) cohort.push_back(at + i);
      out.push_back(std::move(cohort));
      at += size;
    }
    return out;
  }

 private:
  std::string dir_;
  qv::qvisor::Fleet fleet_;
  ControlPlane cp_;
  std::unique_ptr<qv::mgmt::ConfigStore> store_;
  std::unique_ptr<qv::mgmt::RolloutEngine> engine_;
};

bool deploy_ok(const ControlPlane::DeployResult& r, EditKind kind) {
  if (!r.ok || !r.incremental || r.noop) return false;
  return kind == EditKind::kMove
             ? r.delta.index_changed
             : !r.delta.index_changed && r.delta.changed_groups.size() == 1;
}

/// Every switch runs the control plane's deployed plan.
bool fleet_on_deployed(ControlRig& rig) {
  const std::uint64_t want = qv::mgmt::plan_fingerprint(*rig.cp().deployed());
  for (std::size_t i = 0; i < kSwitches; ++i) {
    const auto* plan = rig.fleet().hypervisor(i).group_plan();
    if (plan == nullptr || qv::mgmt::plan_fingerprint(*plan) != want) {
      return false;
    }
  }
  return rig.fleet().epochs_consistent();
}

struct StreamSamples {
  std::vector<double> deploy_us;
  std::vector<double> rollout_ms;
};

/// Untraced rounds: deploys then one RolloutEngine::rollout.
void untraced_round(ControlRig& rig, EditStream& edits, Record& rec,
                    StreamSamples& out) {
  for (std::size_t d = 0; d < kDeploysPerRound; ++d) {
    EditKind kind;
    const GroupedPolicy& policy = edits.next(&kind);
    rec.attempt();
    const std::int64_t t0 = now_ns();
    const auto r = rig.cp().deploy(policy);
    out.deploy_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    rec.check(deploy_ok(r, kind), "deploy off the delta path: " + r.error);
  }
  EditKind kind;
  const GroupedPolicy& candidate = edits.next(&kind);
  rec.attempt();
  const qv::mgmt::PutResult put =
      rig.store().put(qv::mgmt::DocKind::kPolicy, policy_doc(candidate));
  if (!rec.check(put.acked, "store put: " + put.error)) return;
  // CPU time, not wall time: the rollout's one wait is the fsync in
  // mark_good, whose tail follows the host's disk, not this program.
  const std::int64_t t0 = thread_cpu_ns();
  const qv::mgmt::RolloutReport rep = rig.engine().rollout(put.id);
  out.rollout_ms.push_back(static_cast<double>(thread_cpu_ns() - t0) * 1e-6);
  rec.check(rep.ok && rep.outcome == qv::mgmt::RolloutOutcome::kCommitted &&
                !rep.noop && rep.converged && rep.on_lkg &&
                rep.expected_fingerprint ==
                    qv::mgmt::plan_fingerprint(*rig.cp().deployed()) &&
                rig.store().lkg_id(qv::mgmt::DocKind::kPolicy) == put.id,
            "rollout did not commit cleanly: " + rep.abort_reason);
}

struct TracedSamples {
  std::vector<double> compile_us, diff_us, commit_us;
  std::vector<double> put_ms, stage_us, wave_commit_us, probe_us,
      finalize_us, mark_good_ms;
  std::uint64_t deploys = 0;
  std::uint64_t incremental = 0;
  std::uint64_t waves = 0;
  std::uint64_t rollouts = 0;
};

/// One timed step: runs `fn` inside a span and returns its µs.
template <typename Fn>
double timed_us(Spans& spans, Layer layer, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  {
    const Span s(&spans, layer);
    fn();
  }
  return static_cast<double>(now_ns() - t0) * 1e-3;
}

void traced_round(ControlRig& rig, EditStream& edits, Record& rec,
                  Spans& spans, TracedSamples& out) {
  ControlPlane& cp = rig.cp();
  for (std::size_t d = 0; d < kDeploysPerRound; ++d) {
    EditKind kind;
    const GroupedPolicy& policy = edits.next(&kind);
    rec.attempt();
    std::optional<qv::control::CompiledGroupPlan> plan;
    const double compile_us = timed_us(spans, Layer::kControl, [&] {
      plan = cp.compiler().compile(policy, cp.deployed()->index).plan;
    });
    if (!rec.check(plan.has_value(), "compile failed")) continue;
    const double diff_us = timed_us(spans, Layer::kControl, [&] {
      const auto delta = qv::control::diff_group_plans(*cp.deployed(), *plan);
      (void)delta;
    });
    ControlPlane::DeployResult r;
    const double deploy_us =
        timed_us(spans, Layer::kControl, [&] { r = cp.deploy(policy); });
    out.compile_us.push_back(compile_us);
    out.diff_us.push_back(diff_us);
    out.commit_us.push_back(deploy_us - compile_us - diff_us);
    ++out.deploys;
    if (r.ok && r.incremental) ++out.incremental;
    rec.check(deploy_ok(r, kind), "deploy off the delta path: " + r.error);
  }

  EditKind kind;
  const GroupedPolicy& candidate = edits.next(&kind);
  rec.attempt();
  ++out.rollouts;
  qv::mgmt::PutResult put;
  out.put_ms.push_back(1e-3 * timed_us(spans, Layer::kMgmt, [&] {
    put = rig.store().put(qv::mgmt::DocKind::kPolicy, policy_doc(candidate));
  }));
  if (!rec.check(put.acked, "store put: " + put.error)) return;
  ControlPlane::StageResult staged;
  out.stage_us.push_back(timed_us(spans, Layer::kMgmt, [&] {
    const qv::mgmt::JsonValue doc = rig.store().get(put.id)->parse();
    staged = cp.stage_text(doc.find("policy")->as_string());
  }));
  if (!rec.check(staged.ok && !staged.noop, "stage: " + staged.error)) return;
  bool ok = true;
  const auto waves = rig.waves();
  for (std::size_t w = 0; w < waves.size() && ok; ++w) {
    std::string err;
    bool committed = false;
    out.wave_commit_us.push_back(timed_us(spans, Layer::kMgmt, [&] {
      committed = cp.commit_wave(waves[w], -1, &err);
    }));
    ++out.waves;
    ok = rec.check(committed, "commit_wave: " + err);
    if (w != 0 || !ok) continue;
    for (const std::size_t idx : waves[w]) {
      qv::mgmt::ProbeResult pr;
      out.probe_us.push_back(timed_us(spans, Layer::kMgmt, [&] {
        pr = rig.engine().probe_switch(idx);
      }));
      ok = ok && rec.check(pr.pass, "canary probe: " + pr.failure);
    }
  }
  if (!ok) {
    cp.abort_staged();
    return;
  }
  std::string err;
  bool finalized = false;
  out.finalize_us.push_back(timed_us(spans, Layer::kMgmt, [&] {
    finalized = cp.finalize_staged(&err);
  }));
  if (!rec.check(finalized, "finalize_staged: " + err)) return;
  bool marked = false;
  out.mark_good_ms.push_back(1e-3 * timed_us(spans, Layer::kMgmt, [&] {
    marked = rig.store().mark_good(put.id, &err);
  }));
  rec.check(marked && fleet_on_deployed(rig),
            "rollout left the fleet off the candidate plan: " + err);
}

/// Mean ns per GroupIndex::lookup over random tenant ids.
double lookup_ns(const qv::control::GroupIndex& index, std::uint64_t seed,
                 std::uint64_t* checksum) {
  constexpr std::uint64_t kLookups = 1'000'000;
  qv::Rng rng(seed ^ 0x100c0b5ull);
  std::uint64_t sum = 0;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kLookups; ++i) {
    sum += index.lookup(static_cast<qv::TenantId>(rng.next_below(kTenants)));
  }
  *checksum += sum;
  return static_cast<double>(now_ns() - t0) / static_cast<double>(kLookups);
}

/// Untraced: each step is one round on a fleet bootstrapped once.
class ControlPart final : public Part {
 public:
  ControlPart(std::uint64_t seed, bool small)
      : base_(base_policy()), rig_(std::make_unique<ControlRig>(seed, base_)),
        edits_(seed, base_),
        // p99 and p90 each need at least ten samples beyond them.
        min_deploys_(small ? 20 : samples_for(0.99, 10)),
        min_rollouts_(small ? 2 : samples_for(0.90, 10)) {}

  void step(Record& rec) override {
    untraced_round(*rig_, edits_, rec, samples_);
    rec.check(rig_->fleet().epochs_consistent(), "fleet epochs diverged");
  }
  bool done() const override {
    return samples_.deploy_us.size() >= min_deploys_ &&
           samples_.rollout_ms.size() >= min_rollouts_;
  }
  void report(Record& rec) const override {
    rec.metric("deploy_p50_us", median(samples_.deploy_us), "us");
    rec.metric("deploy_p99_us", percentile(samples_.deploy_us, 0.99), "us");
    rec.metric("rollout_p50_ms", median(samples_.rollout_ms), "ms");
    rec.metric("rollout_p90_ms", percentile(samples_.rollout_ms, 0.90),
               "ms");
  }

 private:
  GroupedPolicy base_;
  std::unique_ptr<ControlRig> rig_;
  EditStream edits_;
  std::size_t min_deploys_;
  std::size_t min_rollouts_;
  StreamSamples samples_;
};

}  // namespace

std::unique_ptr<Part> make_control_part(std::uint64_t seed, bool small) {
  return std::make_unique<ControlPart>(seed, small);
}

double control_setup_once(std::uint64_t seed) {
  // Store bootstrap, 16 switches, and the first (full) deploy of the
  // 1M-tenant plan.
  const GroupedPolicy base = base_policy();
  const std::int64_t t0 = now_ns();
  const ControlRig rig(seed, base);
  return seconds_since(t0);
}

void control_traced(std::uint64_t seed, bool small, Record& rec,
                    LayerTable& table) {
  const GroupedPolicy base = base_policy();
  const std::size_t rounds = small ? 3 : 150;
  // Untraced reference over the same rounds on a fresh fleet.
  std::uint64_t untraced_fp = 0;
  {
    ControlRig rig(seed, base);
    EditStream edits(seed, base);
    StreamSamples ignored;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < rounds; ++i) {
      untraced_round(rig, edits, rec, ignored);
    }
    table.untraced_wall_s += seconds_since(t0);
    untraced_fp = qv::mgmt::fleet_plan_fingerprint(rig.fleet());
  }

  ControlRig rig(seed, base);
  EditStream edits(seed, base);
  Spans spans;
  TracedSamples s;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < rounds; ++i) {
    traced_round(rig, edits, rec, spans, s);
  }
  table.traced_wall_s += seconds_since(t0);
  table.add_spans(spans);
  rec.check(qv::mgmt::fleet_plan_fingerprint(rig.fleet()) == untraced_fp,
            "traced stream ended on a different fleet plan");
  rec.check(rig.fleet().epochs_consistent(), "fleet epochs diverged");

  // Index lookups are timed after, and outside, the layer table.
  std::uint64_t checksum = 0;
  const double ns = lookup_ns(*rig.cp().deployed()->index, seed, &checksum);
  rec.check(checksum > 0, "index lookups returned only group 0");

  rec.metric("control.self_s", spans.self_s(Layer::kControl), "s");
  rec.metric("control.compile_us", median(s.compile_us), "us");
  rec.metric("control.diff_us", median(s.diff_us), "us");
  rec.metric("control.commit_us", median(s.commit_us), "us");
  rec.metric("control.incremental_ratio",
             s.deploys == 0 ? 0.0
                            : static_cast<double>(s.incremental) /
                                  static_cast<double>(s.deploys),
             "ratio");
  rec.metric("control.lookup_ns", ns, "ns");
  rec.metric("control.index_bytes",
             static_cast<double>(rig.cp().deployed()->index_bytes()), "bytes");
  rec.metric("mgmt.self_s", spans.self_s(Layer::kMgmt), "s");
  rec.metric("mgmt.put_ms", median(s.put_ms), "ms");
  rec.metric("mgmt.stage_us", median(s.stage_us), "us");
  rec.metric("mgmt.wave_commit_us", median(s.wave_commit_us), "us");
  rec.metric("mgmt.probe_us", median(s.probe_us), "us");
  rec.metric("mgmt.finalize_us", median(s.finalize_us), "us");
  rec.metric("mgmt.mark_good_ms", median(s.mark_good_ms), "ms");
  rec.metric("mgmt.waves_per_rollout",
             s.rollouts == 0 ? 0.0
                             : static_cast<double>(s.waves) /
                                   static_cast<double>(s.rollouts),
             "count");
}

}  // namespace perfbench
