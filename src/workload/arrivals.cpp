#include "workload/arrivals.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace qv::workload {

double arrival_rate_per_host(const ArrivalConfig& cfg, const Cdf& cdf) {
  const double mean_bits = cdf.mean() * 8.0;
  assert(mean_bits > 0);
  return cfg.load * static_cast<double>(cfg.access_rate) / mean_bits;
}

std::vector<FlowArrival> generate_poisson_arrivals(const ArrivalConfig& cfg,
                                                   const Cdf& cdf) {
  assert(cfg.num_hosts >= 2);
  assert(cfg.end > cfg.start);
  const double lambda = arrival_rate_per_host(cfg, cdf);
  if (!(lambda > 0.0) || !std::isfinite(lambda)) {
    // A zero, negative, NaN or infinite rate makes every gap infinite,
    // negative, NaN or zero, and the loop below would never reach
    // cfg.end.
    throw std::invalid_argument(
        "generate_poisson_arrivals: per-host rate must be finite and "
        "positive (load " + std::to_string(cfg.load) + ")");
  }
  const double mean_gap_ns = 1e9 / lambda;

  std::vector<FlowArrival> arrivals;
  for (std::size_t h = 0; h < cfg.num_hosts; ++h) {
    // Independent stream per host, derived from the run seed.
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + h);
    TimeNs t = cfg.start;
    while (true) {
      t += static_cast<TimeNs>(std::ceil(rng.next_exponential(mean_gap_ns)));
      if (t >= cfg.end) break;
      FlowArrival a;
      a.at = t;
      a.src_host = h;
      a.dst_host = rng.next_below(cfg.num_hosts - 1);
      if (a.dst_host >= h) ++a.dst_host;  // uniform over hosts != h
      a.size_bytes = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::llround(cdf.sample(rng))));
      arrivals.push_back(a);
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const FlowArrival& a, const FlowArrival& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.src_host < b.src_host;
            });
  return arrivals;
}

}  // namespace qv::workload
