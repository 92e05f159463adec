#include "qvisor/runtime.hpp"

#include <gtest/gtest.h>

#include "qvisor/backend.hpp"

namespace qv::qvisor {
namespace {

TenantSpec tenant(TenantId id, const std::string& name, Rank lo, Rank hi) {
  TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.declared_bounds = {lo, hi};
  return spec;
}

Packet labeled(TenantId t, Rank rank) {
  Packet p;
  p.tenant = t;
  p.rank = rank;
  p.original_rank = rank;
  p.size_bytes = 1500;
  return p;
}

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest()
      : hv_({tenant(1, "A", 0, 100), tenant(2, "B", 0, 100),
             tenant(3, "C", 0, 100)},
            *parse_policy("A >> B + C").policy,
            std::make_shared<PifoBackend>()) {
    EXPECT_TRUE(hv_.compile().ok);
    port_ = hv_.make_port_scheduler();
  }

  void traffic(TenantId t, TimeNs at, int packets = 5) {
    for (int i = 0; i < packets; ++i) {
      Packet p = labeled(t, 10);
      port_->enqueue(p, at);
    }
    while (port_->dequeue(at)) {
    }
  }

  Hypervisor hv_;
  std::unique_ptr<sched::Scheduler> port_;
};

TEST_F(RuntimeTest, NoTrafficKeepsFullPlan) {
  RuntimeController rc(hv_);
  EXPECT_FALSE(rc.tick(milliseconds(5)));
  EXPECT_EQ(rc.active_tenants().size(), 3u);
  EXPECT_EQ(rc.adaptations(), 0u);
}

TEST_F(RuntimeTest, AdaptsWhenTenantSetShrinks) {
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(10);
  cfg.min_reconfig_interval = 0;
  RuntimeController rc(hv_, cfg);

  // Only A and B transmit.
  traffic(1, milliseconds(1));
  traffic(2, milliseconds(1));
  EXPECT_TRUE(rc.tick(milliseconds(2)));
  EXPECT_EQ(rc.active_tenants(), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(rc.adaptations(), 1u);
  // The installed plan now only provisions A and B.
  EXPECT_EQ(hv_.plan().tenants.size(), 2u);
  EXPECT_NE(hv_.plan().find("A"), nullptr);
  EXPECT_EQ(hv_.plan().find("C"), nullptr);
}

TEST_F(RuntimeTest, SteadyStateDoesNotThrash) {
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(10);
  cfg.min_reconfig_interval = 0;
  RuntimeController rc(hv_, cfg);
  traffic(1, milliseconds(1));
  EXPECT_TRUE(rc.tick(milliseconds(2)));
  // Same active set again: no re-deploy.
  traffic(1, milliseconds(3));
  EXPECT_FALSE(rc.tick(milliseconds(4)));
  EXPECT_EQ(rc.adaptations(), 1u);
}

TEST_F(RuntimeTest, Fig2TenantShiftExpandsNewTenant) {
  // The paper's Fig. 2 story: A and B active before t1, then they go
  // quiet and C lights up; C's band must expand to the full space.
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(10);
  cfg.min_reconfig_interval = 0;
  RuntimeController rc(hv_, cfg);

  traffic(1, milliseconds(1));
  traffic(2, milliseconds(1));
  ASSERT_TRUE(rc.tick(milliseconds(2)));

  // t1: A and B stop; C starts.
  traffic(3, milliseconds(30));
  ASSERT_TRUE(rc.tick(milliseconds(31)));
  EXPECT_EQ(rc.active_tenants(), (std::vector<std::string>{"C"}));
  ASSERT_EQ(hv_.plan().tenants.size(), 1u);
  // Alone in the plan, C starts at the very top of the rank space.
  EXPECT_EQ(hv_.plan().find("C")->transform.out_min(), 0u);
}

TEST_F(RuntimeTest, ReconfigIntervalThrottles) {
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(10);
  cfg.min_reconfig_interval = milliseconds(100);
  RuntimeController rc(hv_, cfg);
  traffic(1, milliseconds(1));
  EXPECT_TRUE(rc.tick(milliseconds(2)));
  traffic(2, milliseconds(3));
  // Change happened, but we are within the hold-down interval.
  EXPECT_FALSE(rc.tick(milliseconds(4)));
  EXPECT_TRUE(rc.tick(milliseconds(150)));
}

TEST_F(RuntimeTest, QuarantinesAdversarialTenant) {
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(50);
  cfg.min_reconfig_interval = 0;
  RuntimeController rc(hv_, cfg);

  // Tenant A floods with out-of-bounds ranks; B behaves.
  for (int i = 0; i < 200; ++i) {
    Packet bad = labeled(1, 5000);  // declared max is 100
    port_->enqueue(bad, milliseconds(1));
  }
  traffic(2, milliseconds(1));
  while (port_->dequeue(milliseconds(1))) {
  }

  ASSERT_TRUE(rc.tick(milliseconds(2)));
  EXPECT_GE(rc.quarantines(), 1u);
  // A is demoted BELOW B despite the operator policy saying A >> B.
  const auto* a = hv_.plan().find("A");
  const auto* b = hv_.plan().find("B");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_GT(a->transform.out_min(), b->transform.out_max());
}

TEST_F(RuntimeTest, TightenBoundsUsesObservedRanks) {
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(50);
  cfg.min_reconfig_interval = 0;
  cfg.tighten_bounds = true;
  cfg.tighten_min_samples = 100;
  RuntimeController rc(hv_, cfg);

  // A only ever uses ranks 40..60 of its declared [0, 100].
  for (int i = 0; i < 300; ++i) {
    Packet p = labeled(1, 40 + static_cast<Rank>(i % 21));
    port_->enqueue(p, milliseconds(1));
  }
  while (port_->dequeue(milliseconds(1))) {
  }
  ASSERT_TRUE(rc.tick(milliseconds(2)));
  bool found = false;
  for (const auto& spec : hv_.tenants()) {
    if (spec.name == "A") {
      EXPECT_EQ(spec.declared_bounds.min, 40u);
      EXPECT_EQ(spec.declared_bounds.max, 60u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RuntimeTest, RetryBackoffGatesReattempts) {
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(100);
  cfg.min_reconfig_interval = 0;
  cfg.retry_budget = 10;
  cfg.retry_backoff = milliseconds(2);
  cfg.retry_backoff_cap = milliseconds(8);
  RuntimeController rc(hv_, cfg);

  // Every install is rejected: the switch agent is unreachable.
  hv_.set_install_fault([](std::uint64_t) { return true; });
  traffic(1, milliseconds(1));
  EXPECT_FALSE(rc.tick(milliseconds(2)));  // first failure, backoff 2ms
  EXPECT_EQ(rc.retries(), 0u);
  EXPECT_FALSE(rc.tick(milliseconds(3)));  // inside backoff: no attempt
  EXPECT_EQ(rc.retries(), 0u);
  EXPECT_FALSE(rc.tick(milliseconds(4)));  // retry #1 fails, backoff 4ms
  EXPECT_EQ(rc.retries(), 1u);
  EXPECT_FALSE(rc.tick(milliseconds(7)));  // still inside backoff
  EXPECT_EQ(rc.retries(), 1u);
  EXPECT_FALSE(rc.tick(milliseconds(8)));  // retry #2 fails, cap (8ms)
  EXPECT_EQ(rc.retries(), 2u);

  // Switch agent comes back: the next due retry heals everything.
  hv_.set_install_fault({});
  EXPECT_FALSE(rc.tick(milliseconds(15)));
  EXPECT_TRUE(rc.tick(milliseconds(16)));
  EXPECT_EQ(rc.retries(), 3u);
  EXPECT_EQ(rc.adaptations(), 1u);
  EXPECT_FALSE(rc.degraded());  // budget was never exhausted
}

TEST_F(RuntimeTest, DegradesAfterBudgetAndRecovers) {
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(100);
  cfg.min_reconfig_interval = 0;
  cfg.retry_budget = 1;
  cfg.retry_backoff = milliseconds(1);
  cfg.retry_backoff_cap = milliseconds(1);
  RuntimeController rc(hv_, cfg);

  hv_.set_install_fault([](std::uint64_t) { return true; });
  traffic(1, milliseconds(1));
  EXPECT_FALSE(rc.tick(milliseconds(2)));  // failure #1 (within budget)
  EXPECT_FALSE(rc.degraded());
  EXPECT_FALSE(rc.tick(milliseconds(3)));  // failure #2 exhausts budget
  EXPECT_TRUE(rc.degraded());
  EXPECT_TRUE(hv_.degraded());
  EXPECT_EQ(rc.degraded_entries(), 1u);

  // Degraded data plane schedules by the tenant-assigned label: the
  // (possibly stale) transform is bypassed entirely.
  Packet p = labeled(2, 7);
  ASSERT_TRUE(port_->enqueue(p, milliseconds(3)));
  auto got = port_->dequeue(milliseconds(3));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->rank, 7u);

  hv_.set_install_fault({});
  EXPECT_TRUE(rc.tick(milliseconds(4)));  // retry heals
  EXPECT_FALSE(rc.degraded());
  EXPECT_FALSE(hv_.degraded());
  EXPECT_EQ(rc.recoveries(), 1u);
}

TEST_F(RuntimeTest, UnquarantinesAfterCleanWindow) {
  RuntimeConfig cfg;
  cfg.activity_window = milliseconds(200);
  cfg.min_reconfig_interval = 0;
  cfg.quarantine_clean_window = milliseconds(10);
  RuntimeController rc(hv_, cfg);

  // C floods out-of-bounds ranks until the monitor flags it.
  for (int i = 0; i < 200; ++i) {
    Packet p = labeled(3, 500);
    port_->enqueue(p, milliseconds(1));
  }
  while (port_->dequeue(milliseconds(1))) {
  }
  traffic(1, milliseconds(1));
  EXPECT_TRUE(rc.tick(milliseconds(2)));
  EXPECT_EQ(rc.quarantines(), 1u);
  EXPECT_EQ(hv_.monitor().verdict(3), Verdict::kAdversarial);

  // Before the clean window elapses nothing changes.
  EXPECT_FALSE(rc.tick(milliseconds(6)));
  EXPECT_EQ(rc.unquarantines(), 0u);

  // 10ms after its last violation, C is forgiven: its monitor state
  // resets and the jail tier lifts in the same tick.
  EXPECT_TRUE(rc.tick(milliseconds(12)));
  EXPECT_EQ(rc.unquarantines(), 1u);
  EXPECT_EQ(hv_.monitor().verdict(3), Verdict::kClean);
  EXPECT_EQ(rc.quarantines(), 1u);  // no NEW quarantines
}

}  // namespace
}  // namespace qv::qvisor
