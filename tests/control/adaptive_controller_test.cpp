// One adaptive loop, three deploy targets: the same quarantine
// forgiveness scenario runs against RuntimeController (one
// hypervisor), FleetController (two-phase, fleet-wide) and
// GroupFleetController (ControlPlane::quarantine).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "control/control_plane.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/fleet.hpp"
#include "qvisor/runtime.hpp"

namespace qv {
namespace {

using control::ControlPlane;
using control::GroupFleetController;
using qvisor::AdaptiveController;
using qvisor::Fleet;
using qvisor::Hypervisor;

enum class Target { kHypervisor, kFleet, kGroup };

// Names each case in test output: ".../Hypervisor", ".../Fleet", ...
void PrintTo(Target target, std::ostream* os) {
  switch (target) {
    case Target::kHypervisor:
      *os << "Hypervisor";
      break;
    case Target::kFleet:
      *os << "Fleet";
      break;
    case Target::kGroup:
      *os << "Group";
      break;
  }
}

qvisor::TenantSpec tenant(TenantId id, const std::string& name) {
  qvisor::TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.declared_bounds = {0, 99};
  return spec;
}

Packet labeled(TenantId t, Rank rank) {
  Packet p;
  p.tenant = t;
  p.rank = rank;
  p.original_rank = rank;
  p.size_bytes = 100;
  return p;
}

constexpr TenantId kFlooder = 3;

class AdaptiveTargetTest : public ::testing::TestWithParam<Target> {
 protected:
  void SetUp() override {
    qvisor::RuntimeConfig cfg;  // the fleet and group targets take its base
    cfg.activity_window = milliseconds(200);
    cfg.min_reconfig_interval = 0;
    cfg.quarantine_clean_window = milliseconds(10);
    const std::vector<qvisor::TenantSpec> tenants = {
        tenant(1, "a"), tenant(2, "b"), tenant(kFlooder, "c")};
    const auto policy = *qvisor::parse_policy("a >> b + c").policy;
    const auto backend = std::make_shared<qvisor::PifoBackend>();
    switch (GetParam()) {
      case Target::kHypervisor:
        hv_ = std::make_unique<Hypervisor>(tenants, policy, backend);
        ASSERT_TRUE(hv_->compile().ok);
        port_ = hv_->make_port_scheduler();
        ctl_ = std::make_unique<qvisor::RuntimeController>(*hv_, cfg);
        break;
      case Target::kFleet:
        fleet_ = std::make_unique<Fleet>(tenants, policy, backend);
        fleet_->add_switch("leaf0");
        fleet_->add_switch("leaf1");
        ASSERT_TRUE(fleet_->compile().ok);
        port_ = fleet_->make_port_scheduler(0);
        ctl_ = std::make_unique<qvisor::FleetController>(*fleet_, cfg);
        break;
      case Target::kGroup: {
        fleet_ = std::make_unique<Fleet>(std::vector<qvisor::TenantSpec>{},
                                         qvisor::OperatorPolicy{}, backend);
        fleet_->add_switch("leaf0");
        fleet_->add_switch("leaf1");
        cp_ = std::make_unique<ControlPlane>(*fleet_);
        ASSERT_TRUE(cp_->deploy_text("group gold = 0..9 bounds 0..99\n"
                                     "group bulk = * bounds 0..99\n"
                                     "policy gold >> bulk\n")
                        .ok);
        qvisor::TenantContract c;
        c.tenant = kFlooder;
        c.rank_min = 0;
        c.rank_max = 99;
        fleet_->set_contract(c);
        port_ = fleet_->make_port_scheduler(0);
        ctl_ = std::make_unique<GroupFleetController>(*cp_, cfg);
        break;
      }
    }
  }

  /// The flooder sends out-of-bounds ranks (a contract violation) and a
  /// well-behaved tenant keeps the active set stable.
  void flood(TimeNs at) {
    port_->enqueue(labeled(1, 10), at);
    for (int i = 0; i < 200; ++i) port_->enqueue(labeled(kFlooder, 5000), at);
    while (port_->dequeue(at)) {
    }
  }

  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<ControlPlane> cp_;
  std::unique_ptr<sched::Scheduler> port_;
  std::unique_ptr<AdaptiveController> ctl_;
};

TEST_P(AdaptiveTargetTest, RecidivistAtForgivenessBoundaryDoesNotFlap) {
  // Jail at 2 ms, violate again while jailed at 5 ms, then tick exactly
  // one clean window later. Releasing there would re-jail a tick after
  // the next violation: two extra deploys (on a fleet, two extra
  // fleet-wide commits) with hostile traffic free in between.
  flood(milliseconds(1));
  ASSERT_TRUE(ctl_->tick(milliseconds(2)));
  ASSERT_EQ(ctl_->quarantined(), (std::vector<TenantId>{kFlooder}));
  flood(milliseconds(5));

  EXPECT_FALSE(ctl_->tick(milliseconds(15)));
  EXPECT_EQ(ctl_->unquarantines(), 0u);
  EXPECT_EQ(ctl_->quarantined(), (std::vector<TenantId>{kFlooder}));

  flood(milliseconds(16));
  EXPECT_FALSE(ctl_->tick(milliseconds(17)));
  EXPECT_EQ(ctl_->unquarantines(), 0u);
  EXPECT_EQ(ctl_->quarantines(), 1u);
  EXPECT_EQ(ctl_->adaptations(), 1u);
  EXPECT_EQ(ctl_->quarantined(), (std::vector<TenantId>{kFlooder}));

  // The 16 ms violation came after the 15 ms restamp, so the jail clock
  // restarts again at 26 ms; a full clean window later it is released.
  EXPECT_FALSE(ctl_->tick(milliseconds(26)));
  EXPECT_EQ(ctl_->unquarantines(), 0u);
  ASSERT_TRUE(ctl_->tick(milliseconds(36)));
  EXPECT_EQ(ctl_->unquarantines(), 1u);
  EXPECT_TRUE(ctl_->quarantined().empty());
  EXPECT_EQ(ctl_->adaptations(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Targets, AdaptiveTargetTest,
                         ::testing::Values(Target::kHypervisor, Target::kFleet,
                                           Target::kGroup));

}  // namespace
}  // namespace qv
