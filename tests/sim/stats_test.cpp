#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace optiplet::sim {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, ResetClears) {
  RunningStat s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(RunningStat, SingleSample) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStat, MergeMatchesSequentialAdds) {
  // Welford/Chan parallel-merge must equal one stream of adds.
  RunningStat a;
  RunningStat b;
  RunningStat all;
  const double left[] = {2.0, 4.0, 4.0, 4.0};
  const double right[] = {5.0, 5.0, 7.0, 9.0};
  for (const double x : left) {
    a.add(x);
    all.add(x);
  }
  for (const double x : right) {
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
}

TEST(RunningStat, MergeWithEmptySides) {
  RunningStat a;
  RunningStat empty;
  a.add(3.0);
  a.add(5.0);
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);

  RunningStat target;
  target.merge(a);  // adopt
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 4.0);
  EXPECT_DOUBLE_EQ(target.min(), 3.0);
  EXPECT_DOUBLE_EQ(target.max(), 5.0);
}

TEST(LogHistogram, BinsGeometrically) {
  LogHistogram h(1.0, 100.0, 2);  // buckets [1,10) and [10,100)
  h.add(2.0);
  h.add(5.0);
  h.add(20.0);
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_DOUBLE_EQ(h.edge(0), 1.0);
  EXPECT_NEAR(h.edge(1), 10.0, 1e-9);
  EXPECT_NEAR(h.edge(2), 100.0, 1e-9);
}

TEST(LogHistogram, UnderflowAndOverflow) {
  LogHistogram h(1.0, 10.0, 4);
  h.add(0.5);
  h.add(0.0);   // below lo (log undefined) counts as underflow
  h.add(10.0);  // hi edge is exclusive
  h.add(1e9);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.stat().count(), 4u);
}

TEST(LogHistogram, QuantileInterpolates) {
  LogHistogram h(1e-6, 100.0, 160);
  for (int i = 0; i < 1000; ++i) {
    h.add(1e-3 * (1.0 + static_cast<double>(i) / 1000.0));  // [1ms, 2ms)
  }
  const double p50 = h.quantile(0.5);
  EXPECT_GT(p50, 1.2e-3);
  EXPECT_LT(p50, 1.8e-3);
  // Tails pin to the layout edges.
  LogHistogram edge(1.0, 10.0, 4);
  edge.add(0.5);
  EXPECT_DOUBLE_EQ(edge.quantile(0.5), 1.0);
  edge.add(100.0);
  EXPECT_DOUBLE_EQ(edge.quantile(0.99), 10.0);
}

TEST(LogHistogram, MergeMatchesSequentialAdds) {
  LogHistogram a(1e-3, 10.0, 40);
  LogHistogram b(1e-3, 10.0, 40);
  LogHistogram all(1e-3, 10.0, 40);
  for (const double x : {0.01, 0.02, 0.5}) {
    a.add(x);
    all.add(x);
  }
  for (const double x : {0.1, 1.0, 5.0, 20.0}) {
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  for (std::size_t i = 0; i < a.bin_count(); ++i) {
    EXPECT_EQ(a.bin(i), all.bin(i));
  }
  EXPECT_EQ(a.overflow(), all.overflow());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), all.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.stat().mean(), all.stat().mean());
}

TEST(LogHistogram, MergeRejectsLayoutMismatch) {
  LogHistogram a(1e-3, 10.0, 40);
  LogHistogram b(1e-3, 10.0, 41);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LogHistogram, RejectsBadConstruction) {
  EXPECT_THROW(LogHistogram(0.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(10.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 10.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::sim
