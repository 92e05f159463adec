#include "workload/arrivals.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qv::workload {
namespace {

ArrivalConfig config(double load, std::size_t hosts, TimeNs end,
                     std::uint64_t seed = 1) {
  ArrivalConfig cfg;
  cfg.load = load;
  cfg.access_rate = gbps(1);
  cfg.num_hosts = hosts;
  cfg.start = 0;
  cfg.end = end;
  cfg.seed = seed;
  return cfg;
}

TEST(Arrivals, DeterministicForSeed) {
  const Cdf cdf = data_mining_cdf();
  const auto cfg = config(0.5, 8, milliseconds(50));
  const auto a = generate_poisson_arrivals(cfg, cdf);
  const auto b = generate_poisson_arrivals(cfg, cdf);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].src_host, b[i].src_host);
    EXPECT_EQ(a[i].dst_host, b[i].dst_host);
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes);
  }
}

TEST(Arrivals, DifferentSeedsDiffer) {
  const Cdf cdf = data_mining_cdf();
  const auto a =
      generate_poisson_arrivals(config(0.5, 8, milliseconds(50), 1), cdf);
  const auto b =
      generate_poisson_arrivals(config(0.5, 8, milliseconds(50), 2), cdf);
  EXPECT_NE(a.size(), b.size());  // overwhelmingly likely
}

TEST(Arrivals, SortedByTime) {
  const Cdf cdf = data_mining_cdf();
  const auto arrivals =
      generate_poisson_arrivals(config(0.7, 16, milliseconds(50)), cdf);
  EXPECT_TRUE(std::is_sorted(
      arrivals.begin(), arrivals.end(),
      [](const FlowArrival& x, const FlowArrival& y) {
        return x.at < y.at;
      }));
}

TEST(Arrivals, WithinWindowAndValidHosts) {
  const Cdf cdf = data_mining_cdf();
  const auto cfg = config(0.5, 8, milliseconds(100));
  for (const auto& a : generate_poisson_arrivals(cfg, cdf)) {
    EXPECT_GE(a.at, cfg.start);
    EXPECT_LT(a.at, cfg.end);
    EXPECT_LT(a.src_host, cfg.num_hosts);
    EXPECT_LT(a.dst_host, cfg.num_hosts);
    EXPECT_NE(a.src_host, a.dst_host);
    EXPECT_GT(a.size_bytes, 0);
  }
}

TEST(Arrivals, RateMatchesLoad) {
  const Cdf cdf = data_mining_cdf();
  const double lambda = arrival_rate_per_host(config(0.6, 8, seconds(1)), cdf);
  // load * rate / (8 * mean) flows per second.
  const double expected = 0.6 * 1e9 / (8.0 * cdf.mean());
  EXPECT_NEAR(lambda / expected, 1.0, 1e-9);

  // Empirically: offered bytes over a long window approximate the load.
  const auto cfg = config(0.6, 8, seconds(2));
  const auto arrivals = generate_poisson_arrivals(cfg, cdf);
  double bytes = 0;
  for (const auto& a : arrivals) bytes += static_cast<double>(a.size_bytes);
  const double offered_load =
      bytes * 8.0 / (2.0 * 8 /*hosts*/ * 1e9 /*bps*/);
  EXPECT_NEAR(offered_load, 0.6, 0.1);
}

TEST(Arrivals, RejectsRateThatIsNotFiniteAndPositive) {
  // Each of these used to loop forever on infinite, negative or NaN
  // gaps; now they fail before generating anything.
  const Cdf cdf = data_mining_cdf();
  for (const double load : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(
        generate_poisson_arrivals(config(load, 8, milliseconds(50)), cdf),
        std::invalid_argument)
        << "load " << load;
  }
}

TEST(Arrivals, HigherLoadMoreFlows) {
  const Cdf cdf = data_mining_cdf();
  const auto low =
      generate_poisson_arrivals(config(0.2, 8, milliseconds(200)), cdf);
  const auto high =
      generate_poisson_arrivals(config(0.8, 8, milliseconds(200)), cdf);
  EXPECT_GT(high.size(), low.size() * 2);
}

TEST(Arrivals, AllHostsParticipate) {
  const Cdf cdf = data_mining_cdf();
  const auto arrivals =
      generate_poisson_arrivals(config(0.8, 4, milliseconds(500)), cdf);
  std::vector<bool> seen(4, false);
  for (const auto& a : arrivals) seen[a.src_host] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace qv::workload
