#include "serve/serving_report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace optiplet::serve {
namespace {

/// Nearest-rank quantile `q` of a non-empty sample, from a sorted copy.
double sorted_quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(LatencyPool, QuantilesMatchTheSortedReference) {
  // Every sample size up to 300 (so every (i50, i95, i99) coincidence of
  // small samples, such as n = 2 with i95 = i99), spread over one to three
  // priority classes, with mostly distinct values and with heavy ties.
  util::Xoshiro256 rng(7);
  for (std::size_t n = 1; n <= 300; ++n) {
    for (unsigned classes = 1; classes <= 3; ++classes) {
      for (const bool ties : {false, true}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " classes="
                                        << classes << " ties=" << ties);
        std::vector<std::vector<double>> by_class(classes);
        std::vector<double> all;
        for (std::size_t i = 0; i < n; ++i) {
          const double latency =
              ties ? 1e-3 * static_cast<double>(rng.next_below(4))
                   : rng.next_double();
          by_class[rng.next_below(classes)].push_back(latency);
          all.push_back(latency);
        }
        LatencyPool pool;
        for (unsigned c = 0; c < classes; ++c) {
          TenantReport tenant;
          tenant.priority = c;
          tenant.sla_s = 0.5;
          tenant.completed = by_class[c].size();
          pool.add(tenant, by_class[c]);
        }
        ServingMetrics m;
        m.completed = n;
        pool.summarize(m, 1, 1.0);
        EXPECT_EQ(bits(m.p50_s), bits(sorted_quantile(all, 0.50)));
        EXPECT_EQ(bits(m.p95_s), bits(sorted_quantile(all, 0.95)));
        EXPECT_EQ(bits(m.p99_s), bits(sorted_quantile(all, 0.99)));
        const auto class_p99 = [](const std::vector<double>& samples) {
          return samples.empty() ? 0.0 : sorted_quantile(samples, 0.99);
        };
        EXPECT_EQ(bits(m.p99_hi_s), bits(class_p99(by_class.front())));
        EXPECT_EQ(bits(m.p99_lo_s), bits(class_p99(by_class.back())));
        if (testing::Test::HasFailure()) {
          return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace optiplet::serve
