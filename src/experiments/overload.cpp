#include "experiments/overload.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "experiments/obs_wiring.hpp"
#include "netsim/network.hpp"
#include "netsim/topology.hpp"
#include "obs/obs.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/fleet.hpp"
#include "sched/fifo.hpp"

namespace qv::experiments {

namespace {

constexpr TenantId kGold = 1;
constexpr TenantId kSilver = 2;
constexpr TenantId kAttacker = 3;
/// Churn mode fabricates ids from here up — above the pre-processor's
/// dense range, so every packet hits the spill path.
constexpr TenantId kChurnBase = qvisor::Preprocessor::kDenseLimit;
/// Monitor tracked-tenant default cap (bounded-state assertion).
constexpr std::size_t kMonitorTrackedCap = 4096;

qvisor::TenantSpec tenant(TenantId id, const std::string& name) {
  qvisor::TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.declared_bounds = {0, 99};
  return spec;
}

TimeNs p99_of(std::vector<TimeNs>& latencies) {
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  return latencies[(latencies.size() - 1) * 99 / 100];
}

struct TenantTally {
  OverloadTenantStats stats;
  std::vector<TimeNs> latencies;
};

OverloadRun run_once(const OverloadConfig& config, bool attack) {
  const bool churn =
      config.mode == trafficgen::AdversaryMode::kTenantChurn;

  netsim::Simulator sim;
  sim.set_simcore(config.per_event_simcore
                      ? netsim::Simulator::SimCore::kPerEventReference
                      : netsim::Simulator::SimCore::kOverhauled);

  // Fleet before the network: ports detach from their hypervisors on
  // destruction, so the fleet must be torn down last.
  qvisor::Fleet fleet(
      {tenant(kGold, "gold"), tenant(kSilver, "silver"),
       tenant(kAttacker, "attacker")},
      *qvisor::parse_policy("gold >> silver + attacker").policy,
      std::make_shared<qvisor::PifoBackend>());

  netsim::Network net(sim);

  std::map<std::string, std::size_t> switch_index;
  netsim::SchedulerFactory factory =
      [&](const netsim::PortContext& ctx)
      -> std::unique_ptr<sched::Scheduler> {
    if (ctx.from_host) return std::make_unique<sched::FifoQueue>();
    auto [it, inserted] =
        switch_index.try_emplace(ctx.node_name, fleet.switch_count());
    if (inserted) fleet.add_switch(ctx.node_name);
    return fleet.make_port_scheduler(it->second);
  };

  netsim::LeafSpineConfig topo_cfg;
  topo_cfg.leaves = 2;
  topo_cfg.spines = 2;
  topo_cfg.hosts_per_leaf = 2;
  topo_cfg.access_rate = config.access_rate;
  topo_cfg.fabric_rate = config.fabric_rate;
  topo_cfg.link_delay = config.link_delay;
  auto topo = netsim::build_leaf_spine(net, topo_cfg, factory);

  // --- contracts + admission guard --------------------------------------
  // The attacker's contract is the throttle target; the well-behaved
  // tenants keep their rank-bounds-only defaults (unpoliced rate, a
  // weighted share of the port buffer once the guard is on).
  qvisor::TenantContract attacker_contract;
  attacker_contract.tenant = kAttacker;
  attacker_contract.rank_min = 0;
  attacker_contract.rank_max = 99;
  attacker_contract.max_rate = config.attacker_contract_rate;
  attacker_contract.burst_bytes = config.attacker_burst_bytes;
  fleet.set_contract(attacker_contract);

  if (config.guard) {
    qvisor::AdmissionSettings guard;
    guard.enabled = true;
    guard.port_buffer_bytes = config.port_buffer_bytes;
    guard.share_headroom = config.share_headroom;
    guard.rank_window = config.rank_window;
    guard.k = config.aifo_k;
    // Tenants with no contract of their own (the id churner) share one
    // aggregate bucket policed at the attacker contract rate.
    guard.unknown_rate_bytes_per_sec =
        static_cast<double>(config.attacker_contract_rate) / 8.0;
    guard.unknown_burst_bytes =
        static_cast<double>(config.attacker_burst_bytes);
    guard.unknown_share_cap_bytes = config.port_buffer_bytes / 4;
    fleet.set_admission(guard);
  }

  const auto compiled = fleet.compile();
  if (!compiled.ok) {
    throw std::runtime_error("overload: initial compile failed: " +
                             compiled.error);
  }

  // --- fleet controller (quarantine path) -------------------------------
  qvisor::ControllerConfig rc;
  rc.activity_window = config.activity_window;
  rc.min_reconfig_interval = config.tick_interval;
  rc.quarantine_clean_window = config.quarantine_clean_window;
  qvisor::FleetController controller(fleet, rc);
  for (TimeNs t = config.tick_interval; t < config.end;
       t += config.tick_interval) {
    sim.at(t, [&controller, t] { controller.tick(t); });
  }

  // --- sinks: per-tenant delivery + latency tallies ---------------------
  OverloadRun run;
  TenantTally gold, silver, attacker_tally;
  const auto classify = [&](TenantId id) -> TenantTally& {
    if (id == kGold) return gold;
    if (id == kSilver) return silver;
    return attacker_tally;  // kAttacker or any churned id
  };
  for (auto* host : topo.hosts) {
    host->set_sink([&](const Packet& p) {
      TenantTally& t = classify(p.tenant);
      ++t.stats.delivered_pkts;
      t.stats.delivered_bytes += static_cast<std::uint64_t>(p.size_bytes);
      t.latencies.push_back(sim.now() - p.created_at);
    });
  }

  // --- victim workload (identical in baseline and attack runs) ----------
  // Cross-leaf CBR: gold from h0, silver from h1, both into h3 — the
  // same access downlink the attacker (h2, same leaf as h3) contends
  // for.
  const NodeId dst = topo.hosts[3]->id();
  const TimeNs victim_interval =
      serialization_delay(config.packet_bytes, config.victim_rate);
  for (std::size_t h = 0; h < 2; ++h) {
    const TenantId tenant_id = h == 0 ? kGold : kSilver;
    std::uint64_t i = 0;
    for (TimeNs t = microseconds(static_cast<std::int64_t>(h));
         t < config.traffic_stop; t += victim_interval, ++i) {
      const Rank label = static_cast<Rank>((h * 13 + i * 7) % 100);
      sim.at(t, [&, h, tenant_id, label, i] {
        Packet p;
        p.flow = h * 4096 + i % 8;
        p.seq = static_cast<std::uint32_t>(i);
        p.src = topo.hosts[h]->id();
        p.dst = dst;
        p.size_bytes = config.packet_bytes;
        p.tenant = tenant_id;
        p.rank = label;
        p.original_rank = label;
        p.created_at = sim.now();
        TenantTally& tally = classify(tenant_id);
        ++tally.stats.offered_pkts;
        tally.stats.offered_bytes +=
            static_cast<std::uint64_t>(p.size_bytes);
        ++run.offered_pkts;
        topo.hosts[h]->send(p);
      });
    }
  }

  // --- the attacker -------------------------------------------------------
  std::optional<trafficgen::AdversarySource> adversary;
  if (attack) {
    trafficgen::AdversaryConfig ac;
    ac.mode = config.mode;
    ac.tenant = churn ? kChurnBase : kAttacker;
    ac.dst = dst;
    ac.flow = 9 * 4096;
    ac.rate = config.attack_rate;
    // The churner probes per-tenant state, so more (smaller) packets =
    // more fabricated ids for the same byte rate — enough to overflow
    // the spill-counter and monitor caps inside the attack window.
    ac.packet_bytes = churn ? 250 : config.packet_bytes;
    ac.start = config.attack_start;
    ac.stop = config.attack_stop;
    ac.rank_lo = 0;
    ac.rank_hi = 99;
    ac.gamed_rank = 0;
    ac.seed = config.seed;
    adversary.emplace(sim, *topo.hosts[2], ac);
  }

  // --- observability ------------------------------------------------------
  if (config.obs != nullptr && attack) {
    wire_network_obs(net, *config.obs, config.end);
    controller.set_tracer(&config.obs->tracer);
  }

  sim.run_until(config.end);
  sim.run();  // drain in-flight packets before auditing conservation

  // --- audit ---------------------------------------------------------------
  if (adversary) {
    run.offered_pkts += adversary->packets_sent();
    attacker_tally.stats.offered_pkts = adversary->packets_sent();
    attacker_tally.stats.offered_bytes = adversary->bytes_sent();
  }

  std::uint64_t per_tenant_total = 0;
  std::uint64_t degraded_total = 0;
  for (const auto& link : net.links()) {
    run.queue_dropped_pkts += link->queue().counters().dropped;
    run.buffered_pkts += link->queue().size();
    const auto* port =
        dynamic_cast<const qvisor::QvisorPort*>(&link->queue());
    if (port == nullptr) continue;
    const auto& pre = port->preprocessor();
    const auto& pc = pre.counters();
    run.pre_processed += pc.processed;
    run.pre_admission_dropped += pc.admission_dropped;
    run.pre_rank_clamped += pc.rank_clamped;
    run.spill_evictions += pc.spill_evictions;
    run.spill_evicted_packets += pc.spill_evicted_packets;
    run.max_spill_tracked =
        std::max(run.max_spill_tracked, pre.spill_tracked());
    degraded_total += pc.degraded_passthrough;
    for (const auto& [id, count] : pre.per_tenant()) per_tenant_total += count;
    if (const auto* guard = pre.admission()) {
      const auto& totals = guard->totals();
      run.guard_offered += totals.offered;
      run.guard_admitted += totals.admitted;
      run.guard_rate_dropped += totals.rate_dropped;
      run.guard_share_dropped += totals.share_dropped;
      run.guard_quantile_dropped += totals.quantile_dropped;
      run.attacker_admitted_bytes +=
          guard->tenant_counters(churn ? kChurnBase : kAttacker)
              .admitted_bytes;
    }
  }
  for (const auto& node : net.nodes()) {
    if (const auto* sw = dynamic_cast<const netsim::Switch*>(node.get())) {
      run.unrouted_pkts += sw->unrouted();
    }
  }
  run.gold = gold.stats;
  run.silver = silver.stats;
  run.attacker = attacker_tally.stats;
  run.gold.p99_latency = p99_of(gold.latencies);
  run.silver.p99_latency = p99_of(silver.latencies);
  run.attacker.p99_latency = p99_of(attacker_tally.latencies);
  run.delivered_pkts = run.gold.delivered_pkts + run.silver.delivered_pkts +
                       run.attacker.delivered_pkts;

  run.conserved =
      run.offered_pkts == run.delivered_pkts + run.queue_dropped_pkts +
                              run.buffered_pkts + run.unrouted_pkts;
  run.guard_balanced =
      run.guard_offered == run.guard_admitted + run.guard_rate_dropped +
                               run.guard_share_dropped +
                               run.guard_quantile_dropped;
  // Every processed packet lands in exactly one per-tenant tally, an
  // evicted tally, or the degraded-passthrough count.
  run.accounting_balanced =
      run.pre_processed ==
      per_tenant_total + run.spill_evicted_packets + degraded_total;

  for (std::size_t s = 0; s < fleet.switch_count(); ++s) {
    const auto& monitor = fleet.hypervisor(s).monitor();
    run.max_tracked_tenants =
        std::max(run.max_tracked_tenants, monitor.tracked_tenants());
    run.untracked_observations += monitor.untracked_observations();
  }
  run.quarantines = controller.quarantines();
  run.unquarantines = controller.unquarantines();
  run.adaptations = controller.adaptations();

  if (config.obs != nullptr && attack) {
    obs::Registry& reg = config.obs->registry;
    export_network_metrics(net, reg);
    fleet.export_metrics(reg, "fleet");
    controller.export_metrics(reg, "fleet.controller");
    reg.set_gauge("result.conserved", run.conserved ? 1.0 : 0.0);
    reg.set_gauge("result.guard_balanced", run.guard_balanced ? 1.0 : 0.0);
    reg.set_gauge("result.victim_gold_bytes",
                  static_cast<double>(run.gold.delivered_bytes));
    reg.set_gauge("result.victim_silver_bytes",
                  static_cast<double>(run.silver.delivered_bytes));
    reg.set_gauge("result.attacker_admitted_bytes",
                  static_cast<double>(run.attacker_admitted_bytes));
    reg.freeze();
  }
  return run;
}

}  // namespace

OverloadResult run_overload(const OverloadConfig& config) {
  OverloadResult result;
  result.baseline = run_once(config, /*attack=*/false);
  result.attack = run_once(config, /*attack=*/true);

  const auto throughput_ok = [&](const OverloadTenantStats& base,
                                 const OverloadTenantStats& under) {
    return static_cast<double>(under.delivered_bytes) >=
           config.victim_throughput_frac *
               static_cast<double>(base.delivered_bytes);
  };
  // Multiplicative envelope with one serialization-quantum of absolute
  // slack: at microsecond-scale baselines a pure factor would sit below
  // a single extra queued packet.
  const auto latency_ok = [&](const OverloadTenantStats& base,
                              const OverloadTenantStats& under) {
    const double limit =
        config.victim_p99_factor * static_cast<double>(base.p99_latency) +
        static_cast<double>(config.victim_p99_slack);
    return static_cast<double>(under.p99_latency) <= limit;
  };
  result.victims_throughput_ok =
      throughput_ok(result.baseline.gold, result.attack.gold) &&
      throughput_ok(result.baseline.silver, result.attack.silver);
  result.victims_latency_ok =
      latency_ok(result.baseline.gold, result.attack.gold) &&
      latency_ok(result.baseline.silver, result.attack.silver);

  // Throttle: what the guard let through converges to the contract
  // (rate x attack window + one burst), within the configured factor.
  const double attack_seconds =
      to_seconds(config.attack_stop - config.attack_start);
  const double contract_bytes =
      static_cast<double>(config.attacker_contract_rate) / 8.0 *
          attack_seconds +
      static_cast<double>(config.attacker_burst_bytes);
  result.attacker_throttled =
      static_cast<double>(result.attack.attacker_admitted_bytes) <=
      config.attacker_rate_factor * contract_bytes;

  const bool churn =
      config.mode == trafficgen::AdversaryMode::kTenantChurn;
  // An id-churning attacker is never identifiable as ONE tenant, so
  // quarantine is vacuous there — it is policed via the aggregate
  // unknown bucket instead (covered by attacker_throttled).
  result.attacker_quarantined = churn || result.attack.quarantines >= 1;

  result.state_bounded =
      result.attack.max_spill_tracked <=
          qvisor::Preprocessor::kDefaultSpillCap &&
      result.attack.max_tracked_tenants <= kMonitorTrackedCap;
  if (churn) {
    // The churner must actually have pushed past both caps, or the
    // bound was never exercised.
    result.state_bounded = result.state_bounded &&
                           result.attack.spill_evictions > 0 &&
                           result.attack.untracked_observations > 0;
  }

  result.ok = result.baseline.conserved && result.attack.conserved &&
              result.attack.guard_balanced &&
              result.baseline.accounting_balanced &&
              result.attack.accounting_balanced && result.state_bounded;
  if (config.guard) {
    result.ok = result.ok && result.victims_throughput_ok &&
                result.victims_latency_ok && result.attacker_throttled &&
                result.attacker_quarantined;
  }
  return result;
}

}  // namespace qv::experiments
