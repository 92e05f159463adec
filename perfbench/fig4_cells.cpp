// Fig. 4 cells: the untraced measurement goes through run_fig4; the
// traced one rebuilds the same cell from public parts (Simulator,
// build_leaf_spine, Hypervisor, HostSource/CbrSource, FctTracker), in
// the same construction and scheduling order as run_fig4, with timing
// decorators around every port scheduler, the QVISOR backend, the host
// sinks and the flow starts. Its result must match run_fig4's to the
// last digit; the fingerprint comparison checks that on every traced
// run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/fig4.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "netsim/topology.hpp"
#include "parts.hpp"
#include "qvisor/backend.hpp"
#include "qvisor/qvisor.hpp"
#include "sched/fifo.hpp"
#include "sched/pifo.hpp"
#include "sched/rank/edf.hpp"
#include "sched/rank/pfabric.hpp"
#include "telemetry/fct_tracker.hpp"
#include "trafficgen/cbr_source.hpp"
#include "trafficgen/host_source.hpp"
#include "util/random.hpp"
#include "workload/arrivals.hpp"
#include "workload/cdf.hpp"

namespace perfbench {

namespace {

using qv::experiments::Fig4Config;
using qv::experiments::Fig4Result;
using qv::experiments::Fig4Scheme;

// Tenant and flow numbering of run_fig4.
constexpr qv::TenantId kPfabricTenant = 1;
constexpr qv::TenantId kEdfTenant = 2;
constexpr qv::FlowId kPfabricFlowBase = 1'000'000;
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

/// The cells of one draw. Every cell of every draw gets its own seed
/// derived from the workload seed, so a run averages its FCTs over
/// independent inputs instead of one shared arrival pattern.
std::vector<Fig4Config> cells(Fig4Set set, std::uint64_t seed,
                              std::uint64_t draw) {
  std::vector<Fig4Config> out;
  switch (set) {
    case Fig4Set::kSweep:
      for (const Fig4Scheme scheme :
           {Fig4Scheme::kFifoBoth, Fig4Scheme::kPifoNaive,
            Fig4Scheme::kPifoIdeal, Fig4Scheme::kQvisorEdfOverPfabric,
            Fig4Scheme::kQvisorShare, Fig4Scheme::kQvisorPfabricOverEdf}) {
        for (const double load : {0.2, 0.5, 0.8}) {
          Fig4Config c = qv::experiments::fig4_scaled_config();
          c.scheme = scheme;
          c.load = load;
          out.push_back(c);
        }
      }
      break;
    case Fig4Set::kPaperFabric: {
      Fig4Config c = qv::experiments::fig4_paper_config();
      const Fig4Config scaled_horizon;
      c.warmup = scaled_horizon.warmup;
      c.measure_window = scaled_horizon.measure_window;
      c.drain = scaled_horizon.drain;
      c.scheme = Fig4Scheme::kFifoBoth;
      c.load = 0.5;
      out.push_back(c);
      break;
    }
    case Fig4Set::kCompanion: {
      // The scaled cell with the most large flows per host second.
      Fig4Config c = qv::experiments::fig4_scaled_config();
      c.scheme = Fig4Scheme::kPifoIdeal;
      c.load = 0.8;
      out.push_back(c);
      break;
    }
    case Fig4Set::kReferenceCell: {
      Fig4Config c = qv::experiments::fig4_scaled_config();
      c.scheme = Fig4Scheme::kQvisorShare;
      c.load = 0.7;
      out.push_back(c);
      break;
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    qv::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ull * (draw * 64 + i + 1)));
    out[i].seed = mix.next();
  }
  return out;
}

/// Every field of a result, doubles at full precision.
std::string fingerprint(const Fig4Result& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "%.17g %.17g %zu %zu %.17g %.17g %zu %zu %.17g %.17g %zu %.17g %llu "
      "%llu %llu %llu %llu %llu %llu %llu %llu",
      r.mean_small_ms, r.p99_small_ms, r.small_flows, r.small_incomplete,
      r.mean_small_lb_ms, r.mean_large_ms, r.large_flows, r.large_incomplete,
      r.mean_large_lb_ms, r.mean_all_ms, r.all_flows, r.edf_deadline_met,
      static_cast<unsigned long long>(r.drops),
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.wheel.scheduled_wheel),
      static_cast<unsigned long long>(r.wheel.scheduled_heap),
      static_cast<unsigned long long>(r.wheel.migrated_from_heap),
      static_cast<unsigned long long>(r.wheel.migrated_wheel_levels),
      static_cast<unsigned long long>(r.wheel.rotations),
      static_cast<unsigned long long>(r.wheel.peak_live),
      static_cast<unsigned long long>(r.events_replayed));
  return buf;
}

std::string cell_label(const Fig4Config& c) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s load %.1f hosts %zu seed %llu",
                qv::experiments::fig4_scheme_name(c.scheme), c.load,
                c.topo.total_hosts(),
                static_cast<unsigned long long>(c.seed));
  return buf;
}

struct SchedCounts {
  std::uint64_t enqueued_pkts = 0;
  std::uint64_t dequeue_calls = 0;
  std::uint64_t dequeue_hits = 0;
};

/// Times every enqueue/dequeue of the scheduler it wraps and counts
/// them; everything else is forwarded untimed.
class TimedScheduler final : public qv::sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<qv::sched::Scheduler> inner, Layer layer,
                 Spans* spans, SchedCounts* counts)
      : inner_(std::move(inner)), layer_(layer), spans_(spans),
        counts_(counts) {}

  bool enqueue(const qv::Packet& p, qv::TimeNs now) override {
    const Span s(spans_, layer_);
    ++counts_->enqueued_pkts;
    return inner_->enqueue(p, now);
  }
  std::size_t enqueue_batch(std::span<qv::Packet> batch,
                            qv::TimeNs now) override {
    const Span s(spans_, layer_);
    counts_->enqueued_pkts += batch.size();
    return inner_->enqueue_batch(batch, now);
  }
  std::optional<qv::Packet> dequeue(qv::TimeNs now) override {
    const Span s(spans_, layer_);
    ++counts_->dequeue_calls;
    std::optional<qv::Packet> p = inner_->dequeue(now);
    if (p) ++counts_->dequeue_hits;
    return p;
  }
  std::size_t dequeue_batch(std::span<qv::Packet> out,
                            qv::TimeNs now) override {
    const Span s(spans_, layer_);
    ++counts_->dequeue_calls;
    const std::size_t n = inner_->dequeue_batch(out, now);
    if (n > 0) ++counts_->dequeue_hits;
    return n;
  }
  std::size_t size() const override { return inner_->size(); }
  std::int64_t buffered_bytes() const override {
    return inner_->buffered_bytes();
  }
  std::string name() const override { return inner_->name(); }
  const qv::sched::SchedulerCounters& counters() const override {
    return inner_->counters();
  }
  void export_metrics(qv::obs::Registry& reg,
                      const std::string& prefix) const override {
    inner_->export_metrics(reg, prefix);
  }

 private:
  std::unique_ptr<qv::sched::Scheduler> inner_;
  Layer layer_;
  Spans* spans_;
  SchedCounts* counts_;
};

/// Wraps the backend QvisorPort calls, so the hardware scheduler's time
/// is charged to `sched` and only the facade's own time to `qvisor`.
class TimedBackend final : public qv::qvisor::Backend {
 public:
  TimedBackend(qv::qvisor::BackendPtr inner, Spans* spans,
               SchedCounts* counts)
      : inner_(std::move(inner)), spans_(spans), counts_(counts) {}

  qv::qvisor::SchedulerCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<qv::sched::Scheduler> instantiate(
      const qv::qvisor::SynthesisPlan& plan) const override {
    return std::make_unique<TimedScheduler>(inner_->instantiate(plan),
                                            Layer::kSched, spans_, counts_);
  }
  std::vector<std::string> guarantees(
      const qv::qvisor::SynthesisPlan& plan) const override {
    return inner_->guarantees(plan);
  }

 private:
  qv::qvisor::BackendPtr inner_;
  Spans* spans_;
  SchedCounts* counts_;
};

/// One fig4 cell built like run_fig4 builds it (unbounded buffers, no
/// reliable transport). With `spans` null nothing is decorated and the
/// constructor is the cell's set-up.
class Fig4Rig {
 public:
  Fig4Rig(const Fig4Config& config, Spans* spans)
      : config_(config), spans_(spans) {
    sim_.set_simcore(qv::netsim::Simulator::SimCore::kOverhauled);
    {
      const Span s(spans_, Layer::kWorkload);
      cdf_.emplace(qv::workload::data_mining_cdf(config.max_flow_bytes));
    }
    const auto max_pfabric_rank = static_cast<qv::Rank>(
        static_cast<std::int64_t>(cdf_->max()) + 1);
    pfabric_ranker_ = std::make_shared<qv::sched::PFabricRanker>(
        /*bytes_per_level=*/1, max_pfabric_rank);
    const qv::TimeNs edf_granularity = qv::microseconds(1);
    const auto max_edf_rank = static_cast<qv::Rank>(
        config.cbr_deadline_slack / edf_granularity + 1);
    edf_ranker_ = std::make_shared<qv::sched::EdfRanker>(edf_granularity,
                                                         max_edf_rank);

    if (uses_qvisor(config.scheme)) {
      std::vector<qv::qvisor::TenantSpec> tenants;
      tenants.push_back(qv::qvisor::TenantSpec::make(
          kPfabricTenant, "pfabric", pfabric_ranker_));
      tenants.push_back(
          qv::qvisor::TenantSpec::make(kEdfTenant, "edf", edf_ranker_));
      auto parsed =
          qv::qvisor::parse_policy(qvisor_policy_string(config.scheme));
      if (!parsed.ok()) throw std::runtime_error("fig4 policy parse");
      qv::qvisor::SynthesizerConfig synth;
      synth.levels_per_group = config.qvisor_levels;
      qv::qvisor::BackendPtr backend =
          std::make_shared<qv::qvisor::PifoBackend>(config.buffer_bytes);
      if (spans_ != nullptr) {
        backend = std::make_shared<TimedBackend>(std::move(backend), spans_,
                                                 &sched_counts_);
      }
      hv_ = std::make_unique<qv::qvisor::Hypervisor>(
          std::move(tenants), std::move(*parsed.policy), std::move(backend),
          synth);
      const auto compiled = hv_->compile();
      if (!compiled.ok) {
        throw std::runtime_error("fig4 QVISOR compile: " + compiled.error);
      }
    }

    const qv::netsim::SchedulerFactory factory =
        [this](const qv::netsim::PortContext&)
        -> std::unique_ptr<qv::sched::Scheduler> {
      std::unique_ptr<qv::sched::Scheduler> port;
      switch (config_.scheme) {
        case Fig4Scheme::kFifoBoth:
          port = std::make_unique<qv::sched::FifoQueue>(config_.buffer_bytes);
          break;
        case Fig4Scheme::kPifoNaive:
        case Fig4Scheme::kPifoIdeal:
          port = std::make_unique<qv::sched::PifoQueue>(config_.buffer_bytes);
          break;
        default:
          port = hv_->make_port_scheduler();
          break;
      }
      if (spans_ == nullptr) return port;
      if (hv_ != nullptr) {
        return std::make_unique<TimedScheduler>(
            std::move(port), Layer::kQvisor, spans_, &qvisor_counts_);
      }
      return std::make_unique<TimedScheduler>(std::move(port), Layer::kSched,
                                              spans_, &sched_counts_);
    };

    net_ = std::make_unique<qv::netsim::Network>(sim_);
    fabric_ = build_leaf_spine(*net_, config.topo, factory);
    const std::size_t num_hosts = fabric_.hosts.size();

    for (qv::netsim::Host* host : fabric_.hosts) {
      host->set_sink([this](const qv::Packet& p) {
        const Span s(spans_, Layer::kTelemetry);
        ++deliveries_;
        const qv::TimeNs now = sim_.now();
        fct_.on_packet_delivered(p, now);
        if (p.tenant == kEdfTenant) deadlines_.on_packet_delivered(p, now);
      });
    }

    sources_.reserve(num_hosts);
    for (qv::netsim::Host* host : fabric_.hosts) {
      sources_.push_back(std::make_unique<qv::trafficgen::HostSource>(
          sim_, *host, kPfabricTenant, pfabric_ranker_,
          config.topo.access_rate, kMtu));
    }

    qv::workload::ArrivalConfig arrivals_cfg;
    arrivals_cfg.load = config.load;
    arrivals_cfg.access_rate = config.topo.access_rate;
    arrivals_cfg.num_hosts = num_hosts;
    arrivals_cfg.start = 0;
    arrivals_cfg.end = config.total_duration();
    arrivals_cfg.seed = config.seed;
    std::vector<qv::workload::FlowArrival> arrivals;
    {
      const Span s(spans_, Layer::kWorkload);
      arrivals = qv::workload::generate_poisson_arrivals(arrivals_cfg, *cdf_);
    }

    qv::FlowId next_flow = kPfabricFlowBase;
    for (const auto& arrival : arrivals) {
      const qv::FlowId flow = next_flow++;
      sim_.at(arrival.at, [this, flow, arrival] {
        ++flow_starts_;
        {
          const Span s(spans_, Layer::kTelemetry);
          fct_.on_flow_start(flow, kPfabricTenant, arrival.size_bytes,
                             sim_.now());
        }
        const Span s(spans_, Layer::kTrafficgen);
        const qv::NodeId dst = fabric_.hosts[arrival.dst_host]->id();
        sources_[arrival.src_host]->start_flow(flow, dst, arrival.size_bytes);
      });
    }

    if (config.scheme != Fig4Scheme::kPifoIdeal) {
      qv::Rng pair_rng(config.seed ^ 0xedf0edf0edf0ULL);
      std::vector<std::size_t> perm(num_hosts);
      for (std::size_t i = 0; i < num_hosts; ++i) perm[i] = i;
      for (std::size_t i = num_hosts - 1; i > 0; --i) {
        const auto j = static_cast<std::size_t>(pair_rng.next_below(i + 1));
        std::swap(perm[i], perm[j]);
      }
      std::size_t made = 0;
      for (std::size_t i = 0; i < num_hosts && made < config.cbr_flows;
           ++i) {
        if (perm[i] == i) continue;
        cbr_.push_back(std::make_unique<qv::trafficgen::CbrSource>(
            sim_, *fabric_.hosts[i], fabric_.hosts[perm[i]]->id(),
            /*flow=*/1 + made, kEdfTenant, edf_ranker_, config.cbr_rate,
            config.cbr_deadline_slack, /*start=*/qv::TimeNs{0},
            /*stop=*/config.total_duration()));
        ++made;
      }
    }
  }

  Fig4Rig(const Fig4Rig&) = delete;
  Fig4Rig& operator=(const Fig4Rig&) = delete;

  void run() {
    const Span s(spans_, Layer::kNetsim);
    sim_.run_until(config_.total_duration());
  }

  Fig4Result result() const {
    qv::telemetry::FlowFilter measured;
    measured.tenant = kPfabricTenant;
    measured.started_from = config_.warmup;
    measured.started_to = config_.warmup + config_.measure_window;
    qv::telemetry::FlowFilter small = measured;
    small.max_bytes = 100'000;
    qv::telemetry::FlowFilter large = measured;
    large.min_bytes = 1'000'000;

    Fig4Result r;
    const qv::TimeNs horizon = config_.total_duration();
    const qv::Sample small_fct = fct_.fct_ms(small);
    r.mean_small_ms = small_fct.mean();
    r.p99_small_ms = small_fct.p99();
    r.small_flows = small_fct.count();
    r.small_incomplete = fct_.incomplete(small);
    r.mean_small_lb_ms = fct_.fct_lower_bound_ms(small, horizon).mean();
    const qv::Sample large_fct = fct_.fct_ms(large);
    r.mean_large_ms = large_fct.mean();
    r.large_flows = large_fct.count();
    r.large_incomplete = fct_.incomplete(large);
    r.mean_large_lb_ms = fct_.fct_lower_bound_ms(large, horizon).mean();
    const qv::Sample all_fct = fct_.fct_ms(measured);
    r.mean_all_ms = all_fct.mean();
    r.all_flows = all_fct.count();
    r.edf_deadline_met = deadlines_.met_fraction();
    r.drops = net_->total_drops();
    r.events = sim_.events_processed();
    r.wheel = sim_.wheel_stats();
    r.events_replayed = sim_.events_replayed();
    return r;
  }

  const SchedCounts& sched_counts() const { return sched_counts_; }
  const SchedCounts& qvisor_counts() const { return qvisor_counts_; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t flow_starts() const { return flow_starts_; }

 private:
  // Declaration order mirrors run_fig4: ports (owned by net_) are
  // destroyed before the hypervisor, and the counters the decorators
  // write outlive both.
  Fig4Config config_;
  Spans* spans_;
  SchedCounts sched_counts_;
  SchedCounts qvisor_counts_;
  std::uint64_t deliveries_ = 0;
  std::uint64_t flow_starts_ = 0;
  qv::netsim::Simulator sim_;
  std::optional<qv::workload::Cdf> cdf_;
  qv::sched::RankerPtr pfabric_ranker_;
  qv::sched::RankerPtr edf_ranker_;
  std::unique_ptr<qv::qvisor::Hypervisor> hv_;
  std::unique_ptr<qv::netsim::Network> net_;
  qv::netsim::LeafSpine fabric_;
  qv::telemetry::FctTracker fct_{/*dedup_by_seq=*/false};
  qv::telemetry::DeadlineTracker deadlines_;
  std::vector<std::unique_ptr<qv::trafficgen::HostSource>> sources_;
  std::vector<std::unique_ptr<qv::trafficgen::CbrSource>> cbr_;
};

/// Finite, positive FCTs (their logs are averaged) over real flows.
bool result_sane(const Fig4Result& r) {
  const bool large_ok = r.large_flows + r.large_incomplete == 0 ||
                        (std::isfinite(r.mean_large_lb_ms) &&
                         r.mean_large_lb_ms > 0.0);
  return std::isfinite(r.mean_small_lb_ms) && r.mean_small_lb_ms > 0.0 &&
         large_ok && r.small_flows > 0 && r.events > 0;
}

/// Independent draws per run: enough cells that the FCT averages hold
/// still from seed to seed (a scaled cell sees only ~25 large flows).
std::size_t draws_per_run(Fig4Set set) {
  switch (set) {
    case Fig4Set::kSweep:
      return 2;  // 36 cells
    case Fig4Set::kPaperFabric:
      return 3;  // 9x the hosts of a scaled cell
    case Fig4Set::kCompanion:
      return 15;
    case Fig4Set::kReferenceCell:
      return 1;
  }
  return 1;
}

/// Untraced: each step runs the next cell through run_fig4. Passes
/// cycle through a fixed number of draws, so the FCTs (taken from the
/// first pass of each draw) do not depend on how many passes fit the
/// budget, and every later pass must reproduce its draw exactly.
///
/// Timing is kept per cell as host ns per simulated event, whose median
/// over a cell's runs is robust to a noisy host; a pass's wall time is
/// then the sum over cells of that median times the cell's mean event
/// count over the draws.
class Fig4Part final : public Part {
 public:
  Fig4Part(Fig4Set set, std::uint64_t seed, bool small)
      : draws_(small ? 1 : draws_per_run(set)),
        min_passes_(small ? 1 : std::max<std::size_t>(draws_, 2)) {
    for (std::size_t d = 0; d < draws_; ++d) {
      configs_.push_back(cells(set, seed, d));
    }
    ns_per_event_.resize(configs_[0].size());
  }

  void step(Record& rec) override {
    const std::size_t draw = passes_ % draws_;
    const Fig4Config& c = configs_[draw][cell_];
    rec.attempt();
    const std::int64_t t0 = now_ns();
    const Fig4Result r = qv::experiments::run_fig4(c);
    const double wall_ns = static_cast<double>(now_ns() - t0);
    ns_per_event_[cell_].push_back(wall_ns / static_cast<double>(r.events));
    const std::string fp = fingerprint(r);
    if (passes_ < draws_) {
      fingerprints_.push_back(fp);
      results_.push_back(r);
      rec.check(result_sane(r), "fig4 result sane: " + cell_label(c));
      rec.check(r.drops == 0,
                "fig4 lossless cell dropped packets: " + cell_label(c));
    } else {
      rec.check(fp == fingerprints_[draw * configs_[draw].size() + cell_],
                "fig4 repeat differs from its first run: " + cell_label(c));
    }
    if (++cell_ == configs_[draw].size()) {
      cell_ = 0;
      ++passes_;
    }
  }

  bool done() const override { return passes_ >= min_passes_; }

  void report(Record& rec) const override {
    const std::size_t n = configs_[0].size();
    double wall_s = 0.0;
    double events = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      double cell_events = 0.0;
      for (std::size_t d = 0; d < draws_; ++d) {
        cell_events += static_cast<double>(results_[d * n + c].events);
      }
      cell_events /= static_cast<double>(draws_);
      events += cell_events;
      wall_s += median(ns_per_event_[c]) * cell_events * 1e-9;
    }
    rec.metric("sim_wall_s", wall_s, "s");
    rec.metric("sim_events_per_s", events / wall_s, "1/s");
    // Geometric means over every cell of every draw: the cells' FCTs
    // differ by up to 50x between schemes, and an arithmetic mean would
    // follow the FIFO cells alone.
    double log_small = 0.0;
    double log_large = 0.0;
    std::size_t large_cells = 0;
    for (const Fig4Result& r : results_) {
      log_small += std::log(r.mean_small_lb_ms);
      if (r.large_flows + r.large_incomplete > 0) {
        log_large += std::log(r.mean_large_lb_ms);
        ++large_cells;
      }
    }
    rec.metric("small_fct_ms",
               std::exp(log_small / static_cast<double>(results_.size())),
               "ms");
    rec.check(large_cells > 0, "fig4: no cell measured a large flow");
    rec.metric("large_fct_ms",
               large_cells > 0
                   ? std::exp(log_large / static_cast<double>(large_cells))
                   : 0.0,
               "ms");
  }

 private:
  std::size_t draws_;
  std::size_t min_passes_;
  std::vector<std::vector<Fig4Config>> configs_;  ///< [draw][cell]
  std::vector<std::string> fingerprints_;         ///< first pass per draw
  std::vector<Fig4Result> results_;               ///< first pass per draw
  std::vector<std::vector<double>> ns_per_event_;  ///< [cell][run]
  std::size_t passes_ = 0;
  std::size_t cell_ = 0;
};

}  // namespace

std::unique_ptr<Part> make_fig4_part(Fig4Set set, std::uint64_t seed,
                                     bool small) {
  return std::make_unique<Fig4Part>(set, seed, small);
}

double fig4_setup_once(Fig4Set set, std::uint64_t seed) {
  // Construct every cell of a draw (topology, hypervisor, sources,
  // arrivals, scheduled flow starts) without running it.
  double total = 0.0;
  for (const Fig4Config& c : cells(set, seed, 0)) {
    const std::int64_t t0 = now_ns();
    const auto rig = std::make_unique<Fig4Rig>(c, nullptr);
    total += seconds_since(t0);
  }
  return total;
}

/// Traced: one untraced pass through run_fig4 and one decorated pass
/// over the cells of the first draw; fingerprints must match cell for
/// cell.
void fig4_traced(Fig4Set set, std::uint64_t seed, Record& rec,
                 LayerTable& table) {
  Spans spans;
  SchedCounts sched;
  SchedCounts qvisor;
  std::uint64_t deliveries = 0;
  std::uint64_t flow_starts = 0;
  qv::netsim::EventQueue::WheelStats wheel;
  std::uint64_t events = 0;
  std::uint64_t replayed = 0;

  for (const Fig4Config& c : cells(set, seed, 0)) {
    rec.attempt();
    std::int64_t t0 = now_ns();
    const Fig4Result ref = qv::experiments::run_fig4(c);
    table.untraced_wall_s += seconds_since(t0);

    t0 = now_ns();
    auto rig = std::make_unique<Fig4Rig>(c, &spans);
    rig->run();
    const Fig4Result got = rig->result();
    const SchedCounts s = rig->sched_counts();
    const SchedCounts q = rig->qvisor_counts();
    deliveries += rig->deliveries();
    flow_starts += rig->flow_starts();
    rig.reset();
    table.traced_wall_s += seconds_since(t0);

    rec.check(fingerprint(got) == fingerprint(ref),
              "traced fig4 cell differs from run_fig4: " + cell_label(c) +
                  "\n  traced   " + fingerprint(got) + "\n  run_fig4 " +
                  fingerprint(ref));
    rec.check(ref.drops == 0,
              "fig4 lossless cell dropped packets: " + cell_label(c));
    sched.enqueued_pkts += s.enqueued_pkts;
    sched.dequeue_calls += s.dequeue_calls;
    sched.dequeue_hits += s.dequeue_hits;
    qvisor.enqueued_pkts += q.enqueued_pkts;
    events += got.events;
    replayed += got.events_replayed;
    wheel.peak_live = std::max(wheel.peak_live, got.wheel.peak_live);
    wheel.scheduled_heap += got.wheel.scheduled_heap;
    wheel.migrated_from_heap += got.wheel.migrated_from_heap;
    wheel.migrated_wheel_levels += got.wheel.migrated_wheel_levels;
    wheel.rotations += got.wheel.rotations;
  }
  rec.check(spans.idle(), "fig4 spans left open");
  table.add_spans(spans);

  const auto per = [](double s, std::uint64_t n) {
    return n == 0 ? 0.0 : s * 1e9 / static_cast<double>(n);
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const double netsim_s = spans.self_s(Layer::kNetsim);
  rec.metric("netsim.self_s", netsim_s, "s");
  rec.metric("netsim.ns_per_event", per(netsim_s, events), "ns");
  rec.metric("netsim.events", count(events), "count");
  rec.metric("netsim.events_replayed", count(replayed), "count");
  rec.metric("netsim.coalesce_ratio",
             events == 0 ? 0.0 : count(replayed) / count(events), "ratio");
  rec.metric("netsim.wheel.peak_live", count(wheel.peak_live), "count");
  rec.metric("netsim.wheel.scheduled_heap", count(wheel.scheduled_heap),
             "count");
  rec.metric("netsim.wheel.migrated_from_heap",
             count(wheel.migrated_from_heap), "count");
  rec.metric("netsim.wheel.migrated_wheel_levels",
             count(wheel.migrated_wheel_levels), "count");
  rec.metric("netsim.wheel.rotations", count(wheel.rotations), "count");

  const double sched_s = spans.self_s(Layer::kSched);
  rec.metric("sched.self_s", sched_s, "s");
  rec.metric("sched.ns_per_call",
             per(sched_s, sched.enqueued_pkts + sched.dequeue_calls), "ns");
  rec.metric("sched.enqueue_calls", count(sched.enqueued_pkts), "count");
  rec.metric("sched.dequeue_calls", count(sched.dequeue_calls), "count");
  rec.metric("sched.dequeue_hit_ratio",
             sched.dequeue_calls == 0
                 ? 0.0
                 : count(sched.dequeue_hits) / count(sched.dequeue_calls),
             "ratio");

  const double qvisor_s = spans.self_s(Layer::kQvisor);
  rec.metric("qvisor.self_s", qvisor_s, "s");
  rec.metric("qvisor.ns_per_packet", per(qvisor_s, qvisor.enqueued_pkts),
             "ns");

  rec.metric("telemetry.self_s", spans.self_s(Layer::kTelemetry), "s");
  rec.metric("telemetry.deliveries", count(deliveries), "count");
  rec.metric("trafficgen.flow_starts", count(flow_starts), "count");
  rec.metric("trafficgen.start_s", spans.self_s(Layer::kTrafficgen), "s");
  rec.metric("workload.arrivals_s", spans.self_s(Layer::kWorkload), "s");
}

}  // namespace perfbench
