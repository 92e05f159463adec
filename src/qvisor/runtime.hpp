// Runtime adaptation on one switch: the adaptive loop
// (qvisor/adaptive.hpp) deployed to a Hypervisor. It polls the
// hypervisor's per-tenant observations (driven by a simulator timer in
// experiments) and re-compiles whenever the ACTIVE tenant set or the
// jail set changes — so when T1/T2 go quiet at the paper's t1 and T3
// lights up (Fig. 2), T3's band expands to the full rank space.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qvisor/adaptive.hpp"
#include "qvisor/qvisor.hpp"

namespace qv::qvisor {

/// The loop's settings plus the tuning only a hypervisor target honours.
struct RuntimeConfig : ControllerConfig {
  /// Replace declared rank bounds with observed ones when enough
  /// samples exist (paper §5 "optimizing configurations at runtime").
  bool tighten_bounds = false;
  std::size_t tighten_min_samples = 256;

  /// After each re-synthesis, replace range normalization with
  /// quantile normalization from live rank distributions (§5: compute
  /// transforms from "the distribution of the latest packets").
  bool quantile_normalization = false;
  std::size_t quantile_min_samples = 128;
};

class RuntimeController : public AdaptiveController {
 public:
  RuntimeController(Hypervisor& hv, RuntimeConfig config = {});

  const std::vector<std::string>& active_tenants() const {
    return activity_.active();
  }
  const std::vector<TenantId>& quarantined() const override {
    return activity_.jailed();
  }
  /// Quantile-refinement installs (including refresh-only ticks).
  std::uint64_t refinements() const { return refinements_; }
  const RuntimeConfig& config() const { return config_; }

  void export_metrics(obs::Registry& reg,
                      const std::string& prefix) const override;

 protected:
  std::vector<TenantId> adversarial() const override {
    return hv_.monitor().adversarial();
  }
  TimeNs last_violation_at(TenantId tenant) const override {
    return hv_.monitor().last_violation_at(tenant);
  }
  void reset_monitor(TenantId tenant) override { hv_.monitor().reset(tenant); }
  void set_degraded(bool degraded) override { hv_.set_degraded(degraded); }
  bool observe(TimeNs now, std::vector<TenantId>& jail) override;
  Deploy deploy(const std::vector<TenantId>& jail, TimeNs now) override;
  /// Live distributions drift: refresh the quantile normalization.
  bool refresh() override {
    return config_.quantile_normalization && hv_.has_plan() &&
           refine_quantiles();
  }

 private:
  /// Quantile-refine the installed plan; true if any transform changed.
  bool refine_quantiles();

  Hypervisor& hv_;
  RuntimeConfig config_;
  TenantActivity activity_;
  std::uint64_t refinements_ = 0;
};

}  // namespace qv::qvisor
