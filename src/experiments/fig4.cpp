#include "experiments/fig4.hpp"
#include "experiments/fig4_backend.hpp"

#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "experiments/obs_wiring.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "obs/obs.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/qvisor.hpp"
#include "sched/fifo.hpp"
#include "sched/pifo.hpp"
#include "sched/rank/edf.hpp"
#include "sched/rank/pfabric.hpp"
#include "telemetry/fct_tracker.hpp"
#include "telemetry/trace_io.hpp"
#include "trafficgen/cbr_source.hpp"
#include "trafficgen/host_source.hpp"
#include "trafficgen/reliable_source.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "workload/arrivals.hpp"
#include "workload/cdf.hpp"

namespace qv::experiments {

namespace {

constexpr TenantId kPfabricTenant = 1;
constexpr TenantId kEdfTenant = 2;
constexpr FlowId kPfabricFlowBase = 1'000'000;
constexpr std::int64_t kMtu = 1500;

bool uses_qvisor(Fig4Scheme s) {
  return s == Fig4Scheme::kQvisorEdfOverPfabric ||
         s == Fig4Scheme::kQvisorShare ||
         s == Fig4Scheme::kQvisorPfabricOverEdf;
}

const char* qvisor_policy_string(Fig4Scheme s) {
  switch (s) {
    case Fig4Scheme::kQvisorEdfOverPfabric:
      return "edf >> pfabric";
    case Fig4Scheme::kQvisorShare:
      return "pfabric + edf";
    case Fig4Scheme::kQvisorPfabricOverEdf:
      return "pfabric >> edf";
    default:
      return "";
  }
}

}  // namespace

const char* fig4_scheme_name(Fig4Scheme scheme) {
  switch (scheme) {
    case Fig4Scheme::kFifoBoth:
      return "FIFO: pFabric and EDF";
    case Fig4Scheme::kPifoNaive:
      return "PIFO: pFabric and EDF";
    case Fig4Scheme::kPifoIdeal:
      return "PIFO: pFabric (ideal)";
    case Fig4Scheme::kQvisorEdfOverPfabric:
      return "QVISOR: EDF >> pFabric";
    case Fig4Scheme::kQvisorShare:
      return "QVISOR: pFabric + EDF";
    case Fig4Scheme::kQvisorPfabricOverEdf:
      return "QVISOR: pFabric >> EDF";
  }
  return "?";
}

Fig4Config fig4_scaled_config() {
  Fig4Config cfg;
  cfg.topo.leaves = 4;
  cfg.topo.spines = 2;
  cfg.topo.hosts_per_leaf = 4;
  cfg.topo.access_rate = gbps(1);
  cfg.topo.fabric_rate = gbps(4);
  // Keep the paper's CBR *intensity*: 100 flows x 0.5 Gb/s over 144
  // access links ~= 0.35 load, so cbr_flows ~= 0.7 per host.
  cfg.cbr_flows = (cfg.topo.total_hosts() * 7 + 5) / 10;
  cfg.max_flow_bytes = 10e6;  // truncated tail fits the shorter horizon
  return cfg;
}

Fig4Config fig4_paper_config() {
  Fig4Config cfg;  // LeafSpineConfig defaults ARE the paper topology
  cfg.cbr_flows = 100;
  cfg.max_flow_bytes = 0;
  cfg.warmup = milliseconds(100);
  cfg.measure_window = milliseconds(300);
  cfg.drain = milliseconds(600);
  return cfg;
}

namespace {
/// Shared implementation; `backend` (when non-null) overrides the
/// default PIFO backend for QVISOR schemes.
Fig4Result run_fig4_impl(const Fig4Config& config,
                         qvisor::BackendPtr backend);
}  // namespace

namespace {
/// Apply the reliable-transport buffer default.
Fig4Config normalized(Fig4Config config) {
  if (config.reliable && config.buffer_bytes == 0) {
    config.buffer_bytes = config.reliable_buffer_bytes;
  }
  return config;
}
}  // namespace

Fig4Result run_fig4(const Fig4Config& config) {
  return run_fig4_impl(normalized(config), nullptr);
}

Fig4Result run_fig4_with_backend(const Fig4Config& raw_config,
                                 Fig4BackendKind kind,
                                 std::size_t num_queues) {
  const Fig4Config config = normalized(raw_config);
  assert(config.scheme == Fig4Scheme::kQvisorEdfOverPfabric ||
         config.scheme == Fig4Scheme::kQvisorShare ||
         config.scheme == Fig4Scheme::kQvisorPfabricOverEdf);
  qvisor::BackendPtr backend;
  switch (kind) {
    case Fig4BackendKind::kPifo:
      backend =
          std::make_shared<qvisor::PifoBackend>(config.buffer_bytes);
      break;
    case Fig4BackendKind::kSpPifo:
      backend = std::make_shared<qvisor::SpPifoBackend>(
          num_queues, config.buffer_bytes);
      break;
    case Fig4BackendKind::kStrictPriority:
      backend = std::make_shared<qvisor::StrictPriorityBackend>(
          num_queues, config.buffer_bytes);
      break;
  }
  return run_fig4_impl(config, std::move(backend));
}

namespace {

Fig4Result run_fig4_impl(const Fig4Config& config,
                         qvisor::BackendPtr backend) {
  netsim::Simulator sim;
  sim.set_simcore(config.per_event_simcore
                      ? netsim::Simulator::SimCore::kPerEventReference
                      : netsim::Simulator::SimCore::kOverhauled);

  const workload::Cdf cdf = workload::data_mining_cdf(config.max_flow_bytes);

  // --- tenants' rank functions (computed at the end hosts) -----------
  // Each tenant uses its NATURAL rank scale: pFabric ranks in remaining
  // BYTES, EDF ranks in microseconds of slack. The scales are
  // incomparable — that is exactly the paper's Problem 1, which the
  // naive-PIFO configuration exhibits and QVISOR's normalization fixes.
  // Declared bounds are tight for the actual workload: the synthesizer
  // relies on rank distributions being "bounded and known in advance"
  // (§3.2).
  const auto max_pfabric_rank =
      static_cast<Rank>(static_cast<std::int64_t>(cdf.max()) + 1);
  auto pfabric_ranker =
      std::make_shared<sched::PFabricRanker>(/*bytes_per_level=*/1,
                                             max_pfabric_rank);
  const TimeNs edf_granularity = microseconds(1);
  const auto max_edf_rank =
      static_cast<Rank>(config.cbr_deadline_slack / edf_granularity + 1);
  auto edf_ranker =
      std::make_shared<sched::EdfRanker>(edf_granularity, max_edf_rank);

  // --- scheduling configuration --------------------------------------
  std::unique_ptr<qvisor::Hypervisor> hv;
  if (uses_qvisor(config.scheme)) {
    std::vector<qvisor::TenantSpec> tenants;
    tenants.push_back(qvisor::TenantSpec::make(kPfabricTenant, "pfabric",
                                               pfabric_ranker));
    tenants.push_back(
        qvisor::TenantSpec::make(kEdfTenant, "edf", edf_ranker));
    auto parsed = qvisor::parse_policy(qvisor_policy_string(config.scheme));
    assert(parsed.ok());
    qvisor::SynthesizerConfig synth;
    synth.levels_per_group = config.qvisor_levels;
    if (backend == nullptr) {
      backend = std::make_shared<qvisor::PifoBackend>(config.buffer_bytes);
    }
    hv = std::make_unique<qvisor::Hypervisor>(
        std::move(tenants), std::move(*parsed.policy), std::move(backend),
        synth);
    auto compiled = hv->compile();
    if (!compiled.ok) {
      throw std::runtime_error("fig4: QVISOR compile failed: " +
                               compiled.error);
    }
  }

  netsim::SchedulerFactory factory =
      [&](const netsim::PortContext&) -> std::unique_ptr<sched::Scheduler> {
    switch (config.scheme) {
      case Fig4Scheme::kFifoBoth:
        return std::make_unique<sched::FifoQueue>(config.buffer_bytes);
      case Fig4Scheme::kPifoNaive:
      case Fig4Scheme::kPifoIdeal:
        return std::make_unique<sched::PifoQueue>(config.buffer_bytes);
      default:
        return hv->make_port_scheduler();
    }
  };

  // `net` is declared after `hv` so ports are destroyed before the
  // hypervisor they are attached to.
  netsim::Network net(sim);
  netsim::LeafSpine fabric = build_leaf_spine(net, config.topo, factory);
  const std::size_t num_hosts = fabric.hosts.size();
  assert(num_hosts >= 2);

  // --- telemetry -------------------------------------------------------
  telemetry::FctTracker fct(/*dedup_by_seq=*/config.reliable);
  telemetry::DeadlineTracker deadlines;
  const auto on_data = [&](const Packet& p, TimeNs now) {
    fct.on_packet_delivered(p, now);
    if (p.tenant == kEdfTenant) deadlines.on_packet_delivered(p, now);
  };
  if (!config.reliable) {
    for (netsim::Host* host : fabric.hosts) {
      host->set_sink(
          [&](const Packet& p) { on_data(p, sim.now()); });
    }
  }

  // --- tenant 1: data-mining flows under pFabric -----------------------
  std::vector<std::unique_ptr<trafficgen::HostSource>> sources;
  std::vector<std::unique_ptr<trafficgen::ReliableHostSource>> rsources;
  std::vector<std::unique_ptr<trafficgen::ReliableSink>> rsinks;
  if (config.reliable) {
    rsources.reserve(num_hosts);
    rsinks.reserve(num_hosts);
    for (netsim::Host* host : fabric.hosts) {
      rsources.push_back(std::make_unique<trafficgen::ReliableHostSource>(
          sim, *host, kPfabricTenant, pfabric_ranker,
          config.topo.access_rate, config.rto, kMtu));
      rsinks.push_back(std::make_unique<trafficgen::ReliableSink>(
          sim, *host, rsources.back().get(), on_data));
      rsinks.back()->set_ack_filter(
          [](const Packet& p) { return p.tenant == kPfabricTenant; });
      rsinks.back()->attach();
    }
  } else {
    sources.reserve(num_hosts);
    for (netsim::Host* host : fabric.hosts) {
      sources.push_back(std::make_unique<trafficgen::HostSource>(
          sim, *host, kPfabricTenant, pfabric_ranker,
          config.topo.access_rate, kMtu));
    }
  }

  workload::ArrivalConfig arrivals_cfg;
  arrivals_cfg.load = config.load;
  arrivals_cfg.access_rate = config.topo.access_rate;
  arrivals_cfg.num_hosts = num_hosts;
  arrivals_cfg.start = 0;
  arrivals_cfg.end = config.total_duration();
  arrivals_cfg.seed = config.seed;
  const auto arrivals = workload::generate_poisson_arrivals(arrivals_cfg, cdf);

  FlowId next_flow = kPfabricFlowBase;
  for (const auto& arrival : arrivals) {
    const FlowId flow = next_flow++;
    sim.at(arrival.at, [&, flow, arrival] {
      fct.on_flow_start(flow, kPfabricTenant, arrival.size_bytes,
                        sim.now());
      const NodeId dst = fabric.hosts[arrival.dst_host]->id();
      if (config.reliable) {
        rsources[arrival.src_host]->start_flow(flow, dst,
                                               arrival.size_bytes);
      } else {
        sources[arrival.src_host]->start_flow(flow, dst,
                                              arrival.size_bytes);
      }
    });
  }

  // --- tenant 2: CBR flows under EDF -----------------------------------
  std::vector<std::unique_ptr<trafficgen::CbrSource>> cbr;
  if (config.scheme != Fig4Scheme::kPifoIdeal) {
    // Random server pairs via a random permutation: every host carries
    // at most one outgoing and one incoming CBR stream, so CBR never
    // exceeds `cbr_rate` on any access link by itself. (Sampling pairs
    // WITH replacement can stack two 0.5 Gb/s streams onto one 1 Gb/s
    // link and starve it outright at any load.)
    Rng pair_rng(config.seed ^ 0xedf0edf0edf0ULL);
    std::vector<std::size_t> perm(num_hosts);
    for (std::size_t i = 0; i < num_hosts; ++i) perm[i] = i;
    for (std::size_t i = num_hosts - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(pair_rng.next_below(i + 1));
      std::swap(perm[i], perm[j]);
    }
    std::size_t made = 0;
    for (std::size_t i = 0; i < num_hosts && made < config.cbr_flows; ++i) {
      if (perm[i] == i) continue;  // skip fixed points (src == dst)
      cbr.push_back(std::make_unique<trafficgen::CbrSource>(
          sim, *fabric.hosts[i], fabric.hosts[perm[i]]->id(),
          /*flow=*/1 + made, kEdfTenant, edf_ranker, config.cbr_rate,
          config.cbr_deadline_slack, /*start=*/TimeNs{0},
          /*stop=*/config.total_duration()));
      ++made;
    }
  }

  // --- observability ----------------------------------------------------
  if (config.obs != nullptr) {
    wire_network_obs(net, *config.obs, config.total_duration());
    if (hv) wire_hypervisor_obs(*hv, *config.obs);
  }

  // --- run --------------------------------------------------------------
  sim.run_until(config.total_duration());

  // --- collect -----------------------------------------------------------
  telemetry::FlowFilter measured;
  measured.tenant = kPfabricTenant;
  measured.started_from = config.warmup;
  measured.started_to = config.warmup + config.measure_window;

  telemetry::FlowFilter small = measured;
  small.max_bytes = 100'000;  // (0, 100 KB)
  telemetry::FlowFilter large = measured;
  large.min_bytes = 1'000'000;  // [1 MB, inf)

  Fig4Result result;
  const TimeNs horizon = config.total_duration();
  const Sample small_fct = fct.fct_ms(small);
  result.mean_small_ms = small_fct.mean();
  result.p99_small_ms = small_fct.p99();
  result.small_flows = small_fct.count();
  result.small_incomplete = fct.incomplete(small);
  result.mean_small_lb_ms = fct.fct_lower_bound_ms(small, horizon).mean();

  const Sample large_fct = fct.fct_ms(large);
  result.mean_large_ms = large_fct.mean();
  result.large_flows = large_fct.count();
  result.large_incomplete = fct.incomplete(large);
  result.mean_large_lb_ms = fct.fct_lower_bound_ms(large, horizon).mean();

  const Sample all_fct = fct.fct_ms(measured);
  result.mean_all_ms = all_fct.mean();
  result.all_flows = all_fct.count();

  result.edf_deadline_met = deadlines.met_fraction();
  result.drops = net.total_drops();
  result.events = sim.events_processed();
  result.wheel = sim.wheel_stats();

  if (result.drops > 0) {
    QV_WARN << "fig4 " << fig4_scheme_name(config.scheme) << " load "
            << config.load << ": " << result.drops
            << " packet drops (finite buffers?)";
  }

  if (!config.flow_csv.empty()) {
    telemetry::save_flow_csv(config.flow_csv, fct, measured);
  }

  // Export + freeze LAST, while the instrumented objects still exist.
  if (config.obs != nullptr) {
    obs::Registry& reg = config.obs->registry;
    export_network_metrics(net, reg);
    if (hv) hv->export_metrics(reg, "qvisor");
    reg.counter("sim.events_processed").inc(result.events);
    reg.set_gauge("result.mean_small_ms", result.mean_small_ms);
    reg.set_gauge("result.p99_small_ms", result.p99_small_ms);
    reg.set_gauge("result.mean_small_lb_ms", result.mean_small_lb_ms);
    reg.set_gauge("result.mean_large_ms", result.mean_large_ms);
    reg.set_gauge("result.mean_large_lb_ms", result.mean_large_lb_ms);
    reg.set_gauge("result.edf_deadline_met", result.edf_deadline_met);
    reg.set_gauge("result.drops", static_cast<double>(result.drops));
    reg.freeze();
  }
  return result;
}

}  // namespace

}  // namespace qv::experiments
