// The sharded dataplane: run_dataplane with 2 fused shards, 8 tenants
// and the admission guard on, on a fixed packet count so every run's
// books are deterministic and comparable. The layer numbers are the
// counts DataplaneResult already publishes; the dataplane's time is
// the run itself.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "parts.hpp"

namespace perfbench {

namespace {

/// Packets per port in one measured run (and in the self-check).
constexpr std::uint64_t kPacketsPerPort = 1'000'000;
constexpr std::uint64_t kSmallPacketsPerPort = 200'000;

qv::dataplane::DataplaneConfig dataplane_config(std::uint64_t seed,
                                                std::uint64_t packets) {
  qv::dataplane::DataplaneConfig cfg;
  cfg.shards = 2;
  cfg.ports_per_shard = 1;
  cfg.fused = true;
  cfg.tenants = 8;
  cfg.guard = true;
  cfg.packets_per_port = packets;
  cfg.seed = seed;
  return cfg;
}

std::string book_text(const qv::dataplane::PortBook& b) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "generated %llu processed %llu admission_dropped %llu "
                "enqueued %llu dequeued %llu residual %llu queue_dropped %llu",
                static_cast<unsigned long long>(b.generated),
                static_cast<unsigned long long>(b.processed),
                static_cast<unsigned long long>(b.admission_dropped),
                static_cast<unsigned long long>(b.enqueued),
                static_cast<unsigned long long>(b.dequeued),
                static_cast<unsigned long long>(b.residual),
                static_cast<unsigned long long>(b.queue_dropped));
  return buf;
}

/// Run once and check every port book balances, the guard dropped
/// something, and the books equal `expected` when one is given.
qv::dataplane::DataplaneResult checked_run(
    const qv::dataplane::DataplaneConfig& cfg, Record& rec,
    const qv::dataplane::PortBook* expected) {
  rec.attempt();
  qv::dataplane::DataplaneResult r = qv::dataplane::run_dataplane(cfg);
  const qv::dataplane::PortBook book = r.book();
  bool ports_ok = r.balanced;
  for (const auto& shard : r.shards) {
    for (const auto& port : shard.ports) ports_ok = ports_ok && port.balanced();
  }
  const std::uint64_t ports = cfg.shards * cfg.ports_per_shard;
  rec.check(ports_ok && book.residual == 0 &&
                book.generated == ports * cfg.packets_per_port &&
                book.admission_dropped > 0,
            "dataplane books: " + book_text(book));
  if (expected != nullptr) {
    rec.check(book == *expected,
              "dataplane books differ between runs: " + book_text(book));
  }
  return r;
}

/// Untraced: each step is one run; every run must reproduce the
/// first run's books exactly.
class DataplanePart final : public Part {
 public:
  DataplanePart(std::uint64_t seed, bool small)
      : cfg_(dataplane_config(seed,
                              small ? kSmallPacketsPerPort : kPacketsPerPort)),
        min_runs_(small ? 1 : 5) {}

  void step(Record& rec) override {
    const auto r = checked_run(cfg_, rec, pps_.empty() ? nullptr : &first_);
    if (pps_.empty()) first_ = r.book();
    pps_.push_back(r.pps() / static_cast<double>(cfg_.shards));
  }
  bool done() const override { return pps_.size() >= min_runs_; }
  void report(Record& rec) const override {
    rec.metric("dp_pps_per_shard", median(pps_), "1/s");
  }

 private:
  qv::dataplane::DataplaneConfig cfg_;
  std::size_t min_runs_;
  qv::dataplane::PortBook first_;
  std::vector<double> pps_;
};

}  // namespace

std::unique_ptr<Part> make_dataplane_part(std::uint64_t seed, bool small) {
  return std::make_unique<DataplanePart>(seed, small);
}

double dataplane_setup_once(std::uint64_t seed, Record& rec) {
  // Everything a run does besides moving packets: policy synthesis,
  // per-port pre-processors and queues, the thread pool.
  rec.attempt();
  const std::int64_t t0 = now_ns();
  const auto r = qv::dataplane::run_dataplane(dataplane_config(seed, 1));
  const double s = seconds_since(t0);
  rec.check(r.balanced, "dataplane set-up run books: " + book_text(r.book()));
  return s;
}

void dataplane_traced(std::uint64_t seed, bool small, Record& rec,
                      LayerTable& table) {
  const qv::dataplane::DataplaneConfig cfg =
      dataplane_config(seed, small ? kSmallPacketsPerPort : kPacketsPerPort);
  std::int64_t t0 = now_ns();
  const auto ref = checked_run(cfg, rec, nullptr);
  table.untraced_wall_s += seconds_since(t0);

  Spans spans;
  t0 = now_ns();
  qv::dataplane::DataplaneResult r;
  {
    const Span s(&spans, Layer::kDataplane);
    r = checked_run(cfg, rec, nullptr);
  }
  table.traced_wall_s += seconds_since(t0);
  table.add_spans(spans);
  rec.check(r.book() == ref.book(),
            "dataplane books differ between runs: " + book_text(r.book()));

  std::uint64_t batches = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t full_spins = 0;
  qv::obs::Log2Histogram batch_pkts;
  qv::obs::Log2Histogram ring_occupancy;
  for (const auto& shard : r.shards) {
    batches += shard.batches;
    empty_polls += shard.empty_polls;
    full_spins += shard.full_spins;
    batch_pkts.merge(shard.batch_pkts);
    ring_occupancy.merge(shard.ring_occupancy);
  }
  const qv::dataplane::PortBook book = r.book();
  rec.metric("dataplane.self_s", spans.self_s(Layer::kDataplane), "s");
  rec.metric("dataplane.batches", static_cast<double>(batches), "count");
  rec.metric("dataplane.empty_polls", static_cast<double>(empty_polls),
             "count");
  rec.metric("dataplane.full_spins", static_cast<double>(full_spins),
             "count");
  rec.metric("dataplane.batch_pkts_p50", batch_pkts.quantile(0.5), "count");
  rec.metric("dataplane.ring_occupancy_p50", ring_occupancy.quantile(0.5),
             "count");
  rec.metric("dataplane.admission_drop_ratio",
             static_cast<double>(book.admission_dropped) /
                 static_cast<double>(book.processed),
             "ratio");
}

}  // namespace perfbench
