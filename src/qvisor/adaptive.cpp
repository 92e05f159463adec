#include "qvisor/adaptive.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "util/logging.hpp"

namespace qv::qvisor {

void AdaptiveController::export_metrics(obs::Registry& reg,
                                        const std::string& prefix) const {
  reg.counter_view(prefix + ".adaptations", &adaptations_);
  reg.counter_view(prefix + ".quarantines", &quarantines_);
  reg.counter_view(prefix + ".retries", &retries_);
  reg.counter_view(prefix + ".degraded_entries", &degraded_entries_);
  reg.counter_view(prefix + ".recoveries", &recoveries_);
  reg.counter_view(prefix + ".unquarantines", &unquarantines_);
  reg.gauge(prefix + ".degraded", [this]() { return degraded_ ? 1.0 : 0.0; });
}

std::vector<TenantId> AdaptiveController::forgive(
    const std::vector<TenantId>& jail, TimeNs now) {
  const TimeNs window = config_.quarantine_clean_window;
  if (window <= 0) return jail;
  std::vector<TenantId> kept;
  for (const TenantId id : jail) {
    const TimeNs last = last_violation_at(id);
    const auto jailed = jailed_at_.find(id);
    if (last < 0 || now - last < window) {
      kept.push_back(id);  // violated too recently (or never observed)
    } else if (jailed != jailed_at_.end() && last >= jailed->second) {
      // Violated again while jailed: releasing it now would re-jail it
      // a tick later (two plan pushes, hostile traffic free in between),
      // so the jail clock restarts in place instead.
      jailed->second = now;
      kept.push_back(id);
    } else if (jailed != jailed_at_.end() && now - jailed->second < window) {
      kept.push_back(id);  // jail term not yet fully served
    } else {
      // Forgiven: the verdict recomputes from post-release behaviour.
      reset_monitor(id);
      jailed_at_.erase(id);
      ++unquarantines_;
      if (obs::Tracer* tr = tracer()) {
        tr->instant(obs::TraceCategory::kRuntime, "unquarantine", now,
                    /*tid=*/0, "tenant", id);
      }
    }
  }
  return kept;
}

void AdaptiveController::record_failure(TimeNs now,
                                        const std::string& error) {
  ++consecutive_failures_;
  const auto failures = static_cast<std::uint64_t>(consecutive_failures_);
  const int shift = std::min(consecutive_failures_ - 1, 30);
  next_retry_at_ = now + std::min(config_.retry_backoff_cap,
                                  config_.retry_backoff << shift);
  obs::Tracer* tr = tracer();
  if (tr != nullptr) {
    tr->instant(obs::TraceCategory::kRuntime, "recompile:failed", now,
                /*tid=*/0, "failures", failures);
  }
  if (consecutive_failures_ > config_.retry_budget && !degraded_) {
    // No plan can land, so stop trusting possibly-stale transforms:
    // every port schedules by the tenant-assigned label.
    degraded_ = true;
    ++degraded_entries_;
    set_degraded(true);
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::kRuntime, "degraded:enter", now,
                  /*tid=*/0, "failures", failures);
    }
    QV_WARN << name_ << " controller degraded after " << failures
            << " consecutive failures";
  }
  QV_WARN << name_ << " adaptation failed: " << error;
}

bool AdaptiveController::tick(TimeNs now) {
  heal(now);
  const bool is_retry = consecutive_failures_ > 0;
  // A failure streak replaces the regular cadence with the backoff.
  if (is_retry ? now < next_retry_at_
               : last_reconfig_ >= 0 &&
                     now - last_reconfig_ < config_.min_reconfig_interval) {
    return false;
  }

  std::vector<TenantId> jail =
      forgive(is_retry ? pending_jail_ : quarantined(), now);
  for (const TenantId id : adversarial()) {
    const auto at = std::lower_bound(jail.begin(), jail.end(), id);
    if (at == jail.end() || *at != id) jail.insert(at, id);
  }
  const bool moved = observe(now, jail);
  const bool jail_moved = jail != quarantined();
  // A due retry always deploys: the point is to heal the failed one.
  if (!moved && !jail_moved && !is_retry) {
    if (!refresh()) return false;
    if (obs::Tracer* tr = tracer()) {
      tr->instant(obs::TraceCategory::kRuntime, "refine", now);
    }
    last_reconfig_ = now;
    return true;
  }

  obs::Tracer* tr = tracer();
  if (is_retry) {
    ++retries_;
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::kRuntime, "recompile:retry", now,
                  /*tid=*/0, "attempt",
                  static_cast<std::uint64_t>(consecutive_failures_));
    }
  }
  const std::size_t jailed_before = quarantined().size();
  const auto wall0 = std::chrono::steady_clock::now();
  const Deploy result = deploy(jail, now);
  if (!result.ok) {
    pending_jail_ = std::move(jail);
    record_failure(now, result.error);
    return false;
  }
  consecutive_failures_ = 0;
  if (degraded_) {
    degraded_ = false;
    ++recoveries_;
    set_degraded(false);
    if (tr != nullptr) {
      tr->instant(obs::TraceCategory::kRuntime, "degraded:exit", now);
    }
  }
  if (tr != nullptr) {
    // At the decision's simulated time, lasting the deploy's wall time.
    tr->complete(obs::TraceCategory::kRuntime, "recompile", now,
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - wall0)
                     .count());
    if (jail_moved) {
      tr->instant(obs::TraceCategory::kRuntime, "quarantine", now,
                  /*tid=*/0, "tenants", jail.size());
    }
  }
  if (jail.size() > jailed_before) quarantines_ += jail.size() - jailed_before;
  for (const TenantId id : jail) jailed_at_.try_emplace(id, now);
  std::erase_if(jailed_at_, [&jail](const auto& kv) {
    return !std::binary_search(jail.begin(), jail.end(), kv.first);
  });
  ++adaptations_;
  last_reconfig_ = now;
  return result.changed;
}

// --- TenantActivity ---------------------------------------------------------

TenantActivity::TenantActivity(const std::vector<TenantSpec>& tenants) {
  for (const auto& spec : tenants) active_.push_back(spec.name);
}

bool TenantActivity::observe(const std::vector<TenantSpec>& tenants,
                             TimeNs now, TimeNs window,
                             const LastSeen& last_seen,
                             std::vector<TenantId>& jail) {
  pending_.clear();
  bool any_seen = false;
  for (const auto& spec : tenants) {
    const std::optional<TimeNs> seen = last_seen(spec.id);
    any_seen = any_seen || seen.has_value();
    if (seen && now - *seen <= window) pending_.push_back(spec.name);
  }
  if (!any_seen || pending_.empty()) {
    // Startup or a global lull: keep every tenant provisioned rather
    // than tearing the plan down.
    pending_.clear();
    for (const auto& spec : tenants) pending_.push_back(spec.name);
  }
  std::sort(pending_.begin(), pending_.end());
  std::erase_if(jail, [&](TenantId id) {
    const auto spec = std::find_if(
        tenants.begin(), tenants.end(),
        [id](const TenantSpec& t) { return t.id == id; });
    return spec == tenants.end() ||
           !std::binary_search(pending_.begin(), pending_.end(), spec->name);
  });
  return pending_ != active_;
}

OperatorPolicy TenantActivity::policy(const OperatorPolicy& base,
                                      const std::vector<TenantSpec>& tenants,
                                      const std::vector<TenantId>& jail) const {
  std::vector<std::string> jailed;
  for (const auto& spec : tenants) {
    if (std::binary_search(jail.begin(), jail.end(), spec.id)) {
      jailed.push_back(spec.name);
    }
  }
  std::sort(jailed.begin(), jailed.end());
  std::vector<std::string> clean;
  std::set_difference(pending_.begin(), pending_.end(), jailed.begin(),
                      jailed.end(), std::back_inserter(clean));
  OperatorPolicy effective = base.restricted_to(clean);
  if (jailed.empty()) return effective;
  auto tiers = effective.tiers();
  tiers.push_back(PriorityTier{{SharingGroup{std::move(jailed)}}});
  return OperatorPolicy(std::move(tiers));
}

}  // namespace qv::qvisor
