// Network-wide scheduling virtualization (paper §5, "Cross-device
// virtualization": "mechanisms to orchestrate the scheduling
// virtualization from a network-wide perspective").
//
// A Fleet owns one Hypervisor per switch and keeps them configured
// identically: tenants and the operator policy are fleet-level state;
// compile() is all-or-nothing (a plan that fails static analysis on
// the common configuration deploys nowhere); per-tenant observations
// aggregate across every switch so the fleet-level runtime controller
// reacts to a tenant that is active ANYWHERE in the network.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qvisor/qvisor.hpp"
#include "qvisor/runtime.hpp"

namespace qv::qvisor {

class Fleet {
 public:
  /// Injectable per-switch install failure: (switch index, epoch) ->
  /// reject?  Consulted for forward installs AND rollback pushes, so an
  /// unreachable switch stays dirty until reconcile() heals it.
  using InstallFault =
      std::function<bool(std::size_t switch_index, std::uint64_t epoch)>;

  /// All switches share the tenant set, policy, backend and config.
  Fleet(std::vector<TenantSpec> tenants, OperatorPolicy policy,
        BackendPtr backend, SynthesizerConfig config = {});

  /// Register a switch; returns its index. Must be called before
  /// compile() deploys anything to it.
  std::size_t add_switch(const std::string& name);

  std::size_t switch_count() const { return switches_.size(); }
  Hypervisor& hypervisor(std::size_t switch_index);
  const std::string& switch_name(std::size_t switch_index) const;

  /// Compile the shared configuration and deploy to EVERY switch.
  /// All-or-nothing by mechanism: the deploy runs as a two-phase
  /// commit at one fleet epoch, and a partial failure rolls every
  /// already-committed switch back to its last-known-good plan.
  Hypervisor::CompileResult compile();

  /// Compile for a subset of tenants on every switch (runtime path).
  /// `now` is only used to timestamp runtime trace spans; pass the
  /// simulated time when a tracer is attached.
  Hypervisor::CompileResult compile_for(
      const std::vector<std::string>& active_names, TimeNs now = -1);

  /// Deploy a group-compiled plan fleet-wide at one epoch (million-
  /// tenant control plane). Same two-phase mechanism as compile_for:
  /// a switch rejecting its install rolls every already-committed
  /// switch back, and the fleet never runs mixed epochs. When `delta`
  /// is given, compatible switches patch only the changed groups (the
  /// incremental re-synthesis path); incompatible ones full-install.
  /// Replaces any per-tenant committed configuration as the fleet's
  /// reconcile target. Returns false and fills `error` on failure.
  bool commit_group_plan(
      std::shared_ptr<const control::CompiledGroupPlan> plan,
      const control::GroupPlanDelta* delta = nullptr, TimeNs now = -1,
      std::string* error = nullptr);

  /// The group plan the fleet currently converges on (reconcile
  /// target); nullptr in per-tenant mode.
  const control::CompiledGroupPlan* committed_group_plan() const {
    return committed_group_.get();
  }

  // --- staged canary/wave commits (management-plane rollouts) -----------
  //
  // A staged rollout reserves ONE fleet epoch and installs it cohort by
  // cohort: stage_group_plan() -> commit_staged_to(canary) ->
  // commit_staged_to(wave) ... -> finalize_staged(). Until finalize,
  // committed_group_/committed_epoch_ still hold the last-known-good
  // plan — so abort_staged() needs no new state: switches that took a
  // wave are rolled back immediately where reachable, and reconcile()
  // (anti-entropy against LKG) is the backstop for the rest.

  /// Reserve a fleet epoch for `plan`. Fails if a rollout is already
  /// staged. When `delta` is given, wave installs use the incremental
  /// patch path on compatible switches.
  bool stage_group_plan(std::shared_ptr<const control::CompiledGroupPlan> plan,
                        const control::GroupPlanDelta* delta = nullptr,
                        std::string* error = nullptr);

  /// Two-phase install of the staged plan on `cohort` (switch indices).
  /// Switches already at the staged epoch are skipped, so retrying a
  /// failed wave is idempotent. On a rejected install, THIS wave's
  /// fresh commits are rolled back (earlier waves keep the staged
  /// epoch) and false is returned.
  bool commit_staged_to(const std::vector<std::size_t>& cohort,
                        TimeNs now = -1, std::string* error = nullptr);

  /// Promote the staged plan to the committed reconcile target. Fails
  /// unless EVERY switch runs the staged epoch (no mixed-version fleet
  /// can ever be finalized).
  bool finalize_staged(std::string* error = nullptr);

  /// Drop the staged rollout: roll reachable staged switches back to
  /// last-known-good now; unreachable ones stay dirty for reconcile().
  void abort_staged(TimeNs now = -1);

  bool has_staged() const { return staged_group_ != nullptr; }
  std::uint64_t staged_epoch() const { return staged_epoch_; }
  /// Switches currently running the staged epoch.
  std::size_t staged_switches() const;

  /// Anti-entropy: re-push the committed configuration to any switch
  /// whose epoch disagrees (failed rollback, agent reboot). Returns the
  /// number of switches healed; switches that still reject the install
  /// stay dirty for the next pass.
  std::size_t reconcile(TimeNs now = -1);

  /// True when every switch runs the committed epoch (vacuously true
  /// before the first successful deploy).
  bool epochs_consistent() const;

  void set_install_fault(InstallFault fault);

  /// Attach a tracer (not owned): install failures, rollbacks and
  /// reconciles become `runtime`-category events; also forwarded to
  /// every switch hypervisor's monitor.
  void set_tracer(obs::Tracer* tracer);

  std::uint64_t committed_epoch() const { return committed_epoch_; }
  std::uint64_t rollbacks() const { return rollbacks_; }
  std::uint64_t reconciles() const { return reconciles_; }
  std::uint64_t failed_installs() const { return failed_installs_; }

  /// Make a port scheduler on a given switch.
  std::unique_ptr<sched::Scheduler> make_port_scheduler(
      std::size_t switch_index);

  /// Fleet-wide per-tenant packet counts.
  std::unordered_map<TenantId, std::uint64_t> per_tenant_packets() const;

  /// Most recent observation time of `tenant` on ANY switch; nullopt if
  /// never seen.
  std::optional<TimeNs> last_seen(TenantId tenant) const;

  /// Tenants judged adversarial on at least one switch.
  std::vector<TenantId> adversarial() const;

  /// Degraded pass-through mode on EVERY switch (see
  /// Hypervisor::set_degraded); the fleet controller flips this when
  /// its retry budget runs out.
  void set_degraded(bool degraded);
  bool degraded() const { return degraded_; }

  /// Most recent bounds/rate violation of `tenant` on ANY switch, or
  /// -1 if it never violated anywhere (quarantine hysteresis input).
  TimeNs last_violation_at(TenantId tenant) const;

  /// Reset the tenant's monitor state on every switch (forgiveness).
  void reset_monitor(TenantId tenant);

  /// Update the shared policy / tenant set (applies on next compile).
  void set_policy(OperatorPolicy policy);
  void upsert_tenant(TenantSpec spec);

  /// Register a tenant contract (rate/burst/bounds) on EVERY switch —
  /// fleet-level state, replayed onto switches added later.
  void set_contract(const TenantContract& contract);

  /// Enable/disable the per-port admission guard on EVERY switch (see
  /// Hypervisor::set_admission); replayed onto switches added later.
  void set_admission(const AdmissionSettings& settings);
  const AdmissionSettings& admission_settings() const { return admission_; }

  const std::vector<TenantSpec>& tenants() const { return tenants_; }
  const OperatorPolicy& policy() const { return policy_; }

  /// Fleet-level aggregation: per-switch hypervisor metrics under
  /// "<prefix>.<switch-name>", plus fleet-wide per-tenant packet
  /// gauges under "<prefix>.fleet.tenant.<name>".
  void export_metrics(obs::Registry& reg, const std::string& prefix) const;

 private:
  struct Member {
    std::string name;
    std::unique_ptr<Hypervisor> hv;
  };

  obs::Tracer* runtime_tracer() const {
    return tracer_ != nullptr &&
                   tracer_->enabled(obs::TraceCategory::kRuntime)
               ? tracer_
               : nullptr;
  }
  /// Re-wire member hv install-fault hooks from the fleet-level hook.
  void wire_install_fault(std::size_t switch_index);

  std::vector<TenantSpec> tenants_;
  OperatorPolicy policy_;
  BackendPtr backend_;
  SynthesizerConfig config_;
  std::vector<Member> switches_;

  InstallFault install_fault_;
  std::vector<TenantContract> contracts_;  ///< replayed onto new switches
  AdmissionSettings admission_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t epoch_counter_ = 0;   ///< epochs handed out (even failed)
  std::uint64_t committed_epoch_ = 0; ///< last fleet-wide success
  std::vector<std::string> committed_active_;
  /// Group-mode reconcile target; exclusive with committed_active_
  /// (per-tenant mode). One shared compiled plan serves every switch.
  std::shared_ptr<const control::CompiledGroupPlan> committed_group_;
  /// In-flight staged rollout (nullptr = none). Never the reconcile
  /// target: only finalize_staged() moves it into committed_group_.
  std::shared_ptr<const control::CompiledGroupPlan> staged_group_;
  std::optional<control::GroupPlanDelta> staged_delta_;
  std::uint64_t staged_epoch_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t reconciles_ = 0;
  std::uint64_t failed_installs_ = 0;
  bool degraded_ = false;
};

/// The adaptive loop over a Fleet: anti-entropy (reconcile) on every
/// tick before the cadence gate, quarantine verdicts aggregated across
/// switches, degraded mode fleet-wide. Deploy targets that run on a
/// fleet derive from it.
class FleetLoop : public AdaptiveController {
 public:
  /// Also forwarded to the fleet (install failures, rollbacks and
  /// reconciles become `runtime` events).
  void set_tracer(obs::Tracer* tracer) override {
    AdaptiveController::set_tracer(tracer);
    fleet_.set_tracer(tracer);
  }

 protected:
  FleetLoop(const char* name, Fleet& fleet, ControllerConfig config)
      : AdaptiveController(name, config), fleet_(fleet) {}

  void heal(TimeNs now) override { fleet_.reconcile(now); }
  std::vector<TenantId> adversarial() const override {
    return fleet_.adversarial();
  }
  TimeNs last_violation_at(TenantId tenant) const override {
    return fleet_.last_violation_at(tenant);
  }
  void reset_monitor(TenantId tenant) override { fleet_.reset_monitor(tenant); }
  void set_degraded(bool degraded) override { fleet_.set_degraded(degraded); }

  Fleet& fleet_;
};

/// Per-tenant plans deployed fleet-wide: the active set is "seen
/// recently on ANY switch", and every deploy is a two-phase commit at
/// one fleet epoch (with the Fleet's rollback + reconcile machinery).
class FleetController : public FleetLoop {
 public:
  FleetController(Fleet& fleet, ControllerConfig config = {});

  const std::vector<std::string>& active_tenants() const {
    return activity_.active();
  }
  const std::vector<TenantId>& quarantined() const override {
    return activity_.jailed();
  }

 protected:
  bool observe(TimeNs now, std::vector<TenantId>& jail) override;
  Deploy deploy(const std::vector<TenantId>& jail, TimeNs now) override;

 private:
  TenantActivity activity_;
};

}  // namespace qv::qvisor
