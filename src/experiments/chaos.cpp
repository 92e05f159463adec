#include "experiments/chaos.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
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
constexpr TenantId kBronze = 3;

qvisor::TenantSpec tenant(TenantId id, const std::string& name) {
  qvisor::TenantSpec spec;
  spec.id = id;
  spec.name = name;
  spec.declared_bounds = {0, 99};
  return spec;
}

std::string fingerprint(const qvisor::SynthesisPlan& plan) {
  // Tenant name + output band, sorted by name: equal fingerprints mean
  // every label maps into the same band on both plans.
  std::vector<std::string> parts;
  for (const auto& tp : plan.tenants) {
    parts.push_back(tp.name + ":[" +
                    std::to_string(tp.transform.out_min()) + "," +
                    std::to_string(tp.transform.out_max()) + "]");
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += ";";
    out += p;
  }
  return out;
}

}  // namespace

ChaosResult run_chaos(const ChaosConfig& config) {
  netsim::Simulator sim;
  sim.set_simcore(config.per_event_simcore
                      ? netsim::Simulator::SimCore::kPerEventReference
                      : netsim::Simulator::SimCore::kOverhauled);

  // --- fleet: one hypervisor per fabric switch --------------------------
  // Declared before the network: every QvisorPort owned by a link
  // detaches from its hypervisor on destruction, so the fleet must be
  // torn down last.
  qvisor::Fleet fleet(
      {tenant(kGold, "gold"), tenant(kSilver, "silver"),
       tenant(kBronze, "bronze")},
      *qvisor::parse_policy("gold >> silver + bronze").policy,
      std::make_shared<qvisor::PifoBackend>());

  netsim::Network net(sim);

  // Switch ports get fleet port schedulers (one fleet member per
  // fabric switch, registered lazily as the topology builder asks);
  // host NIC uplinks stay plain FIFOs — the fabric is where QVISOR
  // runs.
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
  topo_cfg.leaves = config.leaves;
  topo_cfg.spines = config.spines;
  topo_cfg.hosts_per_leaf = config.hosts_per_leaf;
  topo_cfg.access_rate = config.access_rate;
  topo_cfg.fabric_rate = config.fabric_rate;
  topo_cfg.link_delay = config.link_delay;
  auto topo = netsim::build_leaf_spine(net, topo_cfg, factory);

  // --- control-plane chaos ----------------------------------------------
  // One switch agent goes dark for a window (every install attempt —
  // forward or rollback — is rejected), exercising the all-or-nothing
  // deploy, the retry/backoff path, and degraded mode.
  const std::size_t dark_switch = fleet.switch_count() - 1;
  if (config.control_faults) {
    fleet.set_install_fault(
        [&sim, &config, dark_switch](std::size_t sw, std::uint64_t) {
          return sw == dark_switch &&
                 sim.now() >= config.install_fault_from &&
                 sim.now() < config.install_fault_to;
        });
    // Another agent reboots after the faults clear, losing its plan;
    // the controller's anti-entropy pass re-pushes the committed epoch.
    sim.at(config.reboot_at, [&fleet, &config] {
      fleet.hypervisor(config.reboot_switch).clear_plan();
    });
  }

  const auto compiled = fleet.compile();
  if (!compiled.ok) {
    throw std::runtime_error("chaos: initial compile failed: " +
                             compiled.error);
  }

  // --- fleet controller --------------------------------------------------
  qvisor::ControllerConfig rc;
  rc.activity_window = config.activity_window;
  rc.min_reconfig_interval = config.tick_interval;
  rc.retry_budget = config.retry_budget;
  rc.retry_backoff = config.retry_backoff;
  rc.retry_backoff_cap = config.retry_backoff_cap;
  qvisor::FleetController controller(fleet, rc);
  for (TimeNs t = config.tick_interval; t < config.end;
       t += config.tick_interval) {
    sim.at(t, [&controller, t] { controller.tick(t); });
  }

  // --- workload -----------------------------------------------------------
  // Cross-leaf CBR from every host; bronze pauses in
  // [bronze_off, bronze_on) so the tenant set actually changes (and
  // changes back) while the chaos schedule is live.
  ChaosResult result;
  const std::size_t num_hosts = topo.hosts.size();
  for (auto* host : topo.hosts) {
    host->set_sink([&result](const Packet& p) {
      ++result.delivered_pkts;
      result.delivered_bytes += static_cast<std::uint64_t>(p.size_bytes);
    });
  }
  for (std::size_t h = 0; h < num_hosts; ++h) {
    const TenantId tenant_id = 1 + static_cast<TenantId>(h % 3);
    const NodeId dst = topo.hosts[(h + num_hosts / 2) % num_hosts]->id();
    std::uint64_t i = 0;
    for (TimeNs t = microseconds(static_cast<std::int64_t>(h));
         t < config.traffic_stop; t += config.packet_interval, ++i) {
      if (tenant_id == kBronze && t >= config.bronze_off &&
          t < config.bronze_on) {
        continue;
      }
      const Rank label = static_cast<Rank>((h * 13 + i * 7) % 100);
      sim.at(t, [&, h, dst, tenant_id, label, i] {
        Packet p;
        p.flow = h * 4096 + i % 8;  // a few ECMP paths per host pair
        p.seq = static_cast<std::uint32_t>(i);
        p.src = topo.hosts[h]->id();
        p.dst = dst;
        p.size_bytes = config.packet_bytes;
        p.tenant = tenant_id;
        p.rank = label;
        p.original_rank = label;
        p.created_at = sim.now();
        ++result.offered_pkts;
        result.offered_bytes += static_cast<std::uint64_t>(p.size_bytes);
        topo.hosts[h]->send(p);
      });
    }
  }

  // --- data-plane chaos ---------------------------------------------------
  netsim::FaultInjector injector(sim, net);
  if (config.faults) {
    injector.arm(netsim::random_fault_plan(
        config.seed, net.links().size(), config.fault_cfg));
  }

  // --- observability -------------------------------------------------------
  if (config.obs != nullptr) {
    wire_network_obs(net, *config.obs, config.end);
    controller.set_tracer(&config.obs->tracer);
  }

  sim.run_until(config.end);
  // Drain: traffic and faults are long over; whatever events remain are
  // in-flight packets and queue pulls, so run to empty before auditing
  // conservation.
  sim.run();

  // --- audit ---------------------------------------------------------------
  result.injected_pkts = injector.pressure_injected();
  result.injected_bytes = injector.pressure_injected_bytes();
  result.link_downs = injector.link_downs();
  result.link_ups = injector.link_ups();
  for (const auto& link : net.links()) {
    result.queue_dropped_pkts += link->queue().counters().dropped;
    result.queue_dropped_bytes += link->queue().counters().dropped_bytes;
    result.buffered_pkts += link->queue().size();
    if (const auto* port =
            dynamic_cast<const qvisor::QvisorPort*>(&link->queue())) {
      result.epoch_mismatches += port->epoch_mismatches();
    }
  }
  for (const auto& node : net.nodes()) {
    if (const auto* sw = dynamic_cast<const netsim::Switch*>(node.get())) {
      result.unrouted_pkts += sw->unrouted();
    }
  }
  const netsim::LinkFaultCounters faults = net.total_fault_drops();
  result.fault_dropped_pkts = faults.dropped();
  result.fault_dropped_bytes = faults.dropped_bytes();

  const std::uint64_t in = result.offered_pkts + result.injected_pkts;
  const std::uint64_t out = result.delivered_pkts +
                            result.queue_dropped_pkts +
                            result.fault_dropped_pkts +
                            result.buffered_pkts + result.unrouted_pkts;
  const std::uint64_t in_bytes =
      result.offered_bytes + result.injected_bytes;
  const std::uint64_t out_bytes =
      result.delivered_bytes + result.queue_dropped_bytes +
      result.fault_dropped_bytes;
  // Byte conservation is only checked when nothing is left buffered
  // (queue byte occupancy is not tallied per packet here).
  result.conserved =
      in == out && (result.buffered_pkts > 0 || in_bytes == out_bytes);

  result.epochs_consistent = fleet.epochs_consistent();
  result.adaptations = controller.adaptations();
  result.retries = controller.retries();
  result.rollbacks = fleet.rollbacks();
  result.reconciles = fleet.reconciles();
  result.failed_installs = fleet.failed_installs();
  result.degraded_entries = controller.degraded_entries();
  result.recoveries = controller.recoveries();
  result.committed_epoch = fleet.committed_epoch();
  result.plan_fingerprint = fingerprint(fleet.hypervisor(0).plan());

  if (config.obs != nullptr) {
    obs::Registry& reg = config.obs->registry;
    export_network_metrics(net, reg);
    fleet.export_metrics(reg, "fleet");
    controller.export_metrics(reg, "fleet.controller");
    injector.export_metrics(reg, "fault");
    reg.counter("sim.events_processed").inc(sim.events_processed());
    reg.set_gauge("result.offered_pkts",
                  static_cast<double>(result.offered_pkts));
    reg.set_gauge("result.delivered_pkts",
                  static_cast<double>(result.delivered_pkts));
    reg.set_gauge("result.fault_dropped_pkts",
                  static_cast<double>(result.fault_dropped_pkts));
    reg.set_gauge("result.conserved", result.conserved ? 1.0 : 0.0);
    reg.set_gauge("result.epoch_mismatches",
                  static_cast<double>(result.epoch_mismatches));
    reg.freeze();
  }
  return result;
}

}  // namespace qv::experiments
