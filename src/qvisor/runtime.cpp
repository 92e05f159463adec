#include "qvisor/runtime.hpp"

#include "qvisor/quantile_transform.hpp"

namespace qv::qvisor {

RuntimeController::RuntimeController(Hypervisor& hv, RuntimeConfig config)
    : AdaptiveController("runtime", config),
      hv_(hv),
      config_(config),
      activity_(hv.tenants()) {}

void RuntimeController::export_metrics(obs::Registry& reg,
                                       const std::string& prefix) const {
  AdaptiveController::export_metrics(reg, prefix);
  reg.counter_view(prefix + ".refinements", &refinements_);
}

bool RuntimeController::refine_quantiles() {
  std::unordered_map<TenantId, const RankDistEstimator*> estimators;
  for (const auto& [id, est] : hv_.estimators()) {
    estimators.emplace(id, &est);
  }
  std::size_t refined = 0;
  SynthesisPlan plan = refine_with_quantiles(
      hv_.plan(), estimators, config_.quantile_min_samples, &refined);
  if (refined == 0 || !hv_.install_refined(std::move(plan))) return false;
  ++refinements_;
  return true;
}

bool RuntimeController::observe(TimeNs now, std::vector<TenantId>& jail) {
  const auto last_seen = [this](TenantId id) -> std::optional<TimeNs> {
    const RankDistEstimator* est = hv_.find_estimator(id);
    if (est == nullptr || est->empty()) return std::nullopt;
    return est->last_observation();
  };
  return activity_.observe(hv_.tenants(), now, config_.activity_window,
                           last_seen, jail) ||
         !hv_.has_plan();
}

AdaptiveController::Deploy RuntimeController::deploy(
    const std::vector<TenantId>& jail, TimeNs /*now*/) {
  const OperatorPolicy saved = hv_.policy();
  const OperatorPolicy effective =
      activity_.policy(saved, hv_.tenants(), jail);
  if (config_.tighten_bounds) {
    // Declared bounds -> observed ones, before synthesizing.
    for (const auto& spec : hv_.tenants()) {
      auto& est = hv_.estimator(spec.id);
      if (est.samples() >= config_.tighten_min_samples) {
        TenantSpec tightened = spec;
        tightened.declared_bounds = est.bounds();
        hv_.upsert_tenant(std::move(tightened));
      }
    }
  }
  hv_.set_policy(effective);
  auto result = hv_.compile_for(effective.tenant_names());
  hv_.set_policy(saved);  // the operator's intent is permanent
  if (result.ok) {
    if (config_.quantile_normalization) refine_quantiles();
    activity_.commit(jail);
  }
  return {result.ok, true, std::move(result.error)};
}

}  // namespace qv::qvisor
