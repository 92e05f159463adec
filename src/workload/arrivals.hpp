// Open-loop flow arrival processes.
//
// FlowArrivalProcess turns a target load into per-host Poisson flow
// arrivals: load L on access links of rate R with mean flow size S
// gives a per-host arrival rate of lambda = L * R / (8 * S) flows/sec.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/random.hpp"
#include "util/time.hpp"
#include "util/units.hpp"
#include "workload/cdf.hpp"

namespace qv::workload {

struct FlowArrival {
  TimeNs at = 0;
  std::size_t src_host = 0;
  std::size_t dst_host = 0;
  std::int64_t size_bytes = 0;
};

struct ArrivalConfig {
  double load = 0.5;           ///< fraction of access capacity
  BitsPerSec access_rate = gbps(1);
  std::size_t num_hosts = 0;
  TimeNs start = 0;
  TimeNs end = 0;
  std::uint64_t seed = 1;
};

/// Pre-generate all arrivals for a run: Poisson per-host arrivals with
/// sizes drawn from `cdf` and destinations uniform over other hosts.
/// Deterministic given the seed. Sorted by arrival time. Throws
/// std::invalid_argument unless the per-host rate is finite and
/// positive; a load far above 1 is valid but costs memory in proportion.
std::vector<FlowArrival> generate_poisson_arrivals(const ArrivalConfig& cfg,
                                                   const Cdf& cdf);

/// Per-host arrival rate implied by a config (flows per second).
double arrival_rate_per_host(const ArrivalConfig& cfg, const Cdf& cdf);

}  // namespace qv::workload
