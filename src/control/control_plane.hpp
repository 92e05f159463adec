// The million-tenant control plane (ISSUE 7 tentpole, pillar 3):
// incremental re-synthesis over group-compiled policies.
//
// A ControlPlane sits between the operator's grouped policy text and
// the Fleet's two-phase epoch'd commit. Every deploy compiles the
// grouped policy, DIFFS the compiled artifact against what the fleet
// currently runs (diff_group_plans), and installs only the delta when
// the plans are structurally compatible — changed transform-table rows
// plus, only if membership moved, the new index. A structural change
// (group added/removed, tier layout moved) degenerates to a full
// install; an empty delta is a no-op that never touches the fleet.
// Both paths keep the fleet's all-or-nothing guarantee: a switch that
// rejects its install rolls every already-committed switch back.
//
// Deploy latency is measured wall-clock around compile+diff+commit and
// recorded into two Log2Histograms (full vs incremental) — the numbers
// BENCH_control.json reports, and the basis of the ">= 5x faster
// incremental at 1M tenants" acceptance bar.
//
// Quarantine works by POLICY REWRITE, not per-tenant state: jailed
// tenant ids are carved out of their groups' spans into one synthetic
// jail group appended as a strictly-lowest tier. The first quarantine
// changes the group count (full install); later membership changes
// reuse the structure and go through the incremental path.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "control/group_compiler.hpp"
#include "control/group_plan.hpp"
#include "control/group_policy.hpp"
#include "obs/log2_histogram.hpp"
#include "qvisor/fleet.hpp"

namespace qv::control {

class ControlPlane {
 public:
  struct DeployResult {
    bool ok = false;
    bool incremental = false;  ///< delta path taken (not a full install)
    bool noop = false;         ///< empty delta; fleet untouched
    std::string error;
    std::uint64_t latency_ns = 0;  ///< compile + diff + fleet commit
    GroupPlanDelta delta;          ///< what changed vs the deployed plan
  };

  explicit ControlPlane(qvisor::Fleet& fleet,
                        qvisor::SynthesizerConfig config = {});

  /// Parse, compile, diff against the deployed plan, and install —
  /// incrementally when the delta allows it.
  DeployResult deploy_text(const std::string& text, TimeNs now = -1);
  DeployResult deploy(const GroupedPolicy& policy, TimeNs now = -1);

  /// Compile + install ignoring any deployed plan (always the full
  /// path). The benchmark's baseline, and the escape hatch when the
  /// fleet's state is suspect.
  DeployResult deploy_full(const GroupedPolicy& policy, TimeNs now = -1);

  /// Replace the quarantine set and redeploy the effective policy
  /// (operator policy with jailed ids span-split into the jail tier).
  /// Requires a deployed policy. An unchanged set is a no-op.
  DeployResult quarantine(std::vector<TenantId> ids, TimeNs now = -1);
  const std::vector<TenantId>& quarantined() const { return quarantined_; }

  // --- staged rollouts (management plane) -------------------------------
  //
  // The canary-then-wave path: stage() compiles + diffs like deploy()
  // but reserves a fleet epoch instead of committing fleet-wide;
  // commit_wave() installs on one cohort at a time; finalize_staged()
  // promotes the plan (and the control plane's deployed/policy state)
  // only when the whole fleet converged; abort_staged() drops it and
  // the fleet heals back to the still-committed last-known-good plan.
  // deploy()/quarantine() refuse while a rollout is staged — a
  // concurrent fleet-wide install would tear the epoch sequence the
  // waves are converging on.

  struct StageResult {
    bool ok = false;
    bool incremental = false;  ///< waves will use the delta patch path
    bool noop = false;  ///< identical to deployed; nothing staged
    std::string error;
    std::uint64_t epoch = 0;  ///< the reserved fleet epoch (0 on noop)
    GroupPlanDelta delta;     ///< vs the deployed plan
  };

  StageResult stage(const GroupedPolicy& policy, TimeNs now = -1);
  StageResult stage_text(const std::string& text, TimeNs now = -1);

  /// Install the staged plan on `cohort` (fleet switch indices);
  /// idempotent for switches already at the staged epoch.
  bool commit_wave(const std::vector<std::size_t>& cohort, TimeNs now = -1,
                   std::string* error = nullptr);

  /// Promote the staged plan once every switch runs the staged epoch.
  bool finalize_staged(std::string* error = nullptr);

  /// Abandon the staged rollout; the deployed (last-known-good) plan
  /// stays the fleet's reconcile target.
  void abort_staged(TimeNs now = -1);

  bool staged() const { return staged_plan_ != nullptr; }
  const CompiledGroupPlan* staged_plan() const { return staged_plan_.get(); }

  qvisor::Fleet& fleet() { return fleet_; }
  const GroupCompiler& compiler() const { return compiler_; }

  /// The operator's policy as last deployed (without the jail rewrite);
  /// nullptr before the first successful deploy.
  const GroupedPolicy* current_policy() const {
    return policy_ ? &*policy_ : nullptr;
  }
  /// The compiled plan the fleet runs; nullptr before the first deploy.
  const CompiledGroupPlan* deployed() const { return deployed_.get(); }

  std::uint64_t deploys() const { return deploys_; }
  std::uint64_t full_deploys() const { return full_deploys_; }
  std::uint64_t incremental_deploys() const { return incremental_deploys_; }
  std::uint64_t noop_deploys() const { return noop_deploys_; }
  std::uint64_t failed_deploys() const { return failed_deploys_; }

  const obs::Log2Histogram& full_latency() const { return full_latency_; }
  const obs::Log2Histogram& incremental_latency() const {
    return incremental_latency_;
  }

  /// Deploy counters, latency quantiles (full vs incremental), and the
  /// deployed plan's memory split (O(groups) table vs O(tenants) index).
  void export_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  DeployResult deploy_impl(const GroupedPolicy& policy,
                           bool allow_incremental, TimeNs now);
  /// Operator policy with the quarantine set span-split into a jail
  /// group + strictly-lowest tier. Identity when nothing is jailed.
  GroupedPolicy effective_policy(const GroupedPolicy& base) const;

  qvisor::Fleet& fleet_;
  GroupCompiler compiler_;
  std::optional<GroupedPolicy> policy_;  ///< operator intent, no jail
  std::shared_ptr<const CompiledGroupPlan> deployed_;
  /// In-flight staged rollout: the candidate plan and the operator
  /// intent it compiles; promoted into deployed_/policy_ by
  /// finalize_staged(), dropped by abort_staged().
  std::shared_ptr<const CompiledGroupPlan> staged_plan_;
  std::optional<GroupedPolicy> staged_policy_;
  std::vector<TenantId> quarantined_;  ///< sorted, unique

  std::uint64_t deploys_ = 0;
  std::uint64_t full_deploys_ = 0;
  std::uint64_t incremental_deploys_ = 0;
  std::uint64_t noop_deploys_ = 0;
  std::uint64_t failed_deploys_ = 0;
  obs::Log2Histogram full_latency_;         ///< ns per full deploy
  obs::Log2Histogram incremental_latency_;  ///< ns per delta deploy
};

/// The adaptive loop deployed through a ControlPlane (group mode):
/// tenants the monitor flags adversarial on ANY switch are jailed via
/// ControlPlane::quarantine (an incremental redeploy once the jail tier
/// exists). The loop starts from the control plane's quarantine set, so
/// an operator's direct quarantine() call stands until forgiven. At a
/// million tenants this is the whole point of the group rewrite: one
/// misbehaving tenant re-synthesizes O(changed groups), not O(tenants).
class GroupFleetController : public qvisor::FleetLoop {
 public:
  GroupFleetController(ControlPlane& cp,
                       qvisor::ControllerConfig config = {});

  const std::vector<TenantId>& quarantined() const override {
    return cp_.quarantined();
  }

 protected:
  /// Group plans provision every tenant: only the jail set moves.
  bool observe(TimeNs, std::vector<TenantId>&) override { return false; }
  Deploy deploy(const std::vector<TenantId>& jail, TimeNs now) override;

 private:
  ControlPlane& cp_;
};

}  // namespace qv::control
