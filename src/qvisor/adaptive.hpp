// The adaptive control loop (paper §2 Idea 2, §5 cross-device
// virtualization): re-synthesize and deploy the scheduling policy when
// the workload changes, and demote tenants the monitor flags as
// adversarial to a strictly-lowest tier.
//
// AdaptiveController is the one copy of what does not depend on where
// a plan lands: the cadence gate, self-healing (capped exponential
// backoff, a retry budget, then degraded pass-through ranks until a
// deploy lands), quarantine forgiveness, the counters and the
// `runtime` trace events. A deploy target subclasses it and supplies
// its monitor view, what else calls for a redeploy, and the deploy:
// RuntimeController (one hypervisor), FleetController (every switch,
// two-phase) and control::GroupFleetController (a ControlPlane).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "qvisor/policy.hpp"
#include "qvisor/tenant.hpp"
#include "util/time.hpp"

namespace qv::qvisor {

struct ControllerConfig {
  /// Per-tenant targets: a tenant is active if it sent a packet within
  /// this window. (Group plans provision every tenant: no active set.)
  TimeNs activity_window = milliseconds(10);

  /// Do not re-deploy more often than this (data-plane churn guard).
  TimeNs min_reconfig_interval = milliseconds(1);

  /// Self-healing: a failed deploy is retried when its backoff expires
  /// (doubling from `retry_backoff`, capped at `retry_backoff_cap`);
  /// after more than `retry_budget` consecutive failures the data plane
  /// degrades until a deploy lands.
  int retry_budget = 3;
  TimeNs retry_backoff = milliseconds(1);
  TimeNs retry_backoff_cap = milliseconds(64);

  /// Quarantine hysteresis: a jailed tenant is forgiven (monitor state
  /// reset, jail tier lifted) once clean for this long since its last
  /// violation AND since its latest (re-)quarantine; a violation while
  /// jailed restarts the jail clock. 0 = never release.
  TimeNs quarantine_clean_window = 0;
};

class AdaptiveController {
 public:
  virtual ~AdaptiveController() = default;

  /// Forgive, re-read the workload and the monitor, and deploy if
  /// anything moved or a retry is due. True when a new plan landed.
  bool tick(TimeNs now);

  /// Jailed tenants as the target runs them (sorted ids).
  virtual const std::vector<TenantId>& quarantined() const = 0;

  std::uint64_t adaptations() const { return adaptations_; }
  std::uint64_t quarantines() const { return quarantines_; }
  std::uint64_t unquarantines() const { return unquarantines_; }
  /// Deploys re-issued after a failure.
  std::uint64_t retries() const { return retries_; }
  /// Times the retry budget ran out / a later deploy lifted degraded.
  std::uint64_t degraded_entries() const { return degraded_entries_; }
  std::uint64_t recoveries() const { return recoveries_; }
  /// True while the data plane runs degraded pass-through ranks.
  bool degraded() const { return degraded_; }
  const ControllerConfig& config() const { return config_; }

  /// Attach a tracer (not owned): deploys become `runtime` spans of
  /// their wall-clock cost; retries, failures, degraded enter/exit and
  /// (un)quarantines become instants.
  virtual void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Publish the counters as live registry views.
  virtual void export_metrics(obs::Registry& reg,
                              const std::string& prefix) const;

 protected:
  /// `name` labels warnings ("<name> controller degraded ...").
  AdaptiveController(const char* name, ControllerConfig config)
      : name_(name), config_(config) {}

  struct Deploy {
    bool ok;
    bool changed;  ///< false: the deploy was a no-op
    std::string error;
  };

  // What a deploy target supplies. heal() runs on every tick, before
  // the cadence gate (anti-entropy).
  virtual void heal(TimeNs /*now*/) {}
  virtual std::vector<TenantId> adversarial() const = 0;
  virtual TimeNs last_violation_at(TenantId tenant) const = 0;
  virtual void reset_monitor(TenantId tenant) = 0;
  virtual void set_degraded(bool degraded) = 0;
  /// Re-read the workload and narrow `jail` to the tenants this target
  /// can jail. True when something besides the jail set moved.
  virtual bool observe(TimeNs now, std::vector<TenantId>& jail) = 0;
  /// Deploy the plan jailing exactly `jail` (quarantined() on success).
  virtual Deploy deploy(const std::vector<TenantId>& jail, TimeNs now) = 0;
  /// Nothing to redeploy: refresh the installed plan in place if the
  /// target can. True if it did.
  virtual bool refresh() { return false; }

 private:
  /// `jail` minus the tenants forgiven at `now`.
  std::vector<TenantId> forgive(const std::vector<TenantId>& jail,
                                TimeNs now);
  void record_failure(TimeNs now, const std::string& error);
  obs::Tracer* tracer() const {
    return tracer_ != nullptr &&
                   tracer_->enabled(obs::TraceCategory::kRuntime)
               ? tracer_
               : nullptr;
  }

  const char* name_;
  ControllerConfig config_;
  obs::Tracer* tracer_ = nullptr;
  /// The jail set of the last failed deploy: the retry starts from it,
  /// so a tenant forgiven there stays forgiven.
  std::vector<TenantId> pending_jail_;
  /// When each jailed tenant was (re-)quarantined.
  std::unordered_map<TenantId, TimeNs> jailed_at_;
  TimeNs last_reconfig_ = -1;
  int consecutive_failures_ = 0;
  TimeNs next_retry_at_ = -1;
  bool degraded_ = false;
  std::uint64_t adaptations_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t unquarantines_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t degraded_entries_ = 0;
  std::uint64_t recoveries_ = 0;
};

/// The per-tenant half shared by the hypervisor and fleet targets: the
/// active set and the jail-tier policy rewrite.
class TenantActivity {
 public:
  /// Most recent observation of a tenant; nullopt if never seen.
  using LastSeen = std::function<std::optional<TimeNs>(TenantId)>;

  /// Every tenant starts active (the initial full plan).
  explicit TenantActivity(const std::vector<TenantSpec>& tenants);

  /// Recompute the active set (pending until commit()) and drop
  /// inactive tenants from `jail`. True when the active set moved.
  bool observe(const std::vector<TenantSpec>& tenants, TimeNs now,
               TimeNs window, const LastSeen& last_seen,
               std::vector<TenantId>& jail);
  /// `base` restricted to the pending clean active tenants, plus the
  /// `jail` tenants as one strictly-lowest tier.
  OperatorPolicy policy(const OperatorPolicy& base,
                        const std::vector<TenantSpec>& tenants,
                        const std::vector<TenantId>& jail) const;
  /// The deploy landed: the pending active set and `jail` are live.
  void commit(const std::vector<TenantId>& jail) {
    active_ = pending_;
    jailed_ = jail;
  }

  const std::vector<std::string>& active() const { return active_; }
  const std::vector<TenantId>& jailed() const { return jailed_; }

 private:
  std::vector<std::string> active_, pending_;
  std::vector<TenantId> jailed_;
};

}  // namespace qv::qvisor
