#include "serve/arrivals.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace optiplet::serve {
namespace {

TEST(PoissonArrivals, DeterministicUnderFixedSeed) {
  const auto a = poisson_arrivals(1000.0, 5000, 7);
  const auto b = poisson_arrivals(1000.0, 5000, 7);
  ASSERT_EQ(a.size(), 5000u);
  EXPECT_EQ(a, b);  // bit-for-bit
}

TEST(PoissonArrivals, DifferentSeedsDiffer) {
  const auto a = poisson_arrivals(1000.0, 100, 7);
  const auto b = poisson_arrivals(1000.0, 100, 8);
  EXPECT_NE(a, b);
}

TEST(PoissonArrivals, StrictlyIncreasingFromZero) {
  const auto a = poisson_arrivals(500.0, 1000, 42);
  EXPECT_GT(a.front(), 0.0);
  for (std::size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i], a[i - 1]);
  }
}

TEST(PoissonArrivals, MeanInterArrivalMatchesRate) {
  const double rate = 2000.0;
  const auto a = poisson_arrivals(rate, 50000, 1);
  const double mean = a.back() / static_cast<double>(a.size());
  // 50k exponential draws: the sample mean sits within a few percent.
  EXPECT_NEAR(mean, 1.0 / rate, 0.05 / rate);
}

TEST(PoissonArrivals, RejectsNonPositiveRate) {
  EXPECT_THROW(poisson_arrivals(0.0, 10, 1), std::invalid_argument);
  EXPECT_THROW(poisson_arrivals(-5.0, 10, 1), std::invalid_argument);
}

class TraceFile : public ::testing::Test {
 protected:
  void write(const std::string& text) {
    std::ofstream out(path_, std::ios::binary);
    out << text;
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = ::testing::TempDir() + "optiplet_trace_test.csv";
};

TEST_F(TraceFile, LoadsSortedWithTenantColumn) {
  write("arrival_s,tenant\n2.5e-3,VGG16\n1e-3,LeNet5\n1e-3,VGG16\n");
  const auto events = load_arrival_trace(path_);
  ASSERT_EQ(events.size(), 3u);
  // Sorted by time, stable for equal times (file order preserved).
  EXPECT_DOUBLE_EQ(events[0].arrival_s, 1e-3);
  EXPECT_EQ(events[0].tenant, "LeNet5");
  EXPECT_EQ(events[1].tenant, "VGG16");
  EXPECT_DOUBLE_EQ(events[2].arrival_s, 2.5e-3);

  const auto lenet = trace_arrivals_for(events, "LeNet5");
  ASSERT_EQ(lenet.size(), 1u);
  EXPECT_DOUBLE_EQ(lenet[0], 1e-3);
  const auto vgg = trace_arrivals_for(events, "VGG16");
  EXPECT_EQ(vgg.size(), 2u);
}

TEST_F(TraceFile, NoTenantColumnFeedsEveryTenant) {
  write("arrival_s\n1e-3\n2e-3\n");
  const auto events = load_arrival_trace(path_);
  EXPECT_EQ(trace_arrivals_for(events, "anything").size(), 2u);
}

TEST_F(TraceFile, QuotedTenantNamesSurvive) {
  write("arrival_s,tenant\n1e-3,\"model, variant A\"\n");
  const auto events = load_arrival_trace(path_);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tenant, "model, variant A");
}

TEST_F(TraceFile, RejectsMissingColumnAndBadValues) {
  write("time\n1e-3\n");
  EXPECT_THROW(load_arrival_trace(path_), std::invalid_argument);
  write("arrival_s\nnot-a-number\n");
  EXPECT_THROW(load_arrival_trace(path_), std::invalid_argument);
  write("arrival_s\n-1.0\n");
  EXPECT_THROW(load_arrival_trace(path_), std::invalid_argument);
  // Non-finite times parse as doubles but must fail here, naming the
  // value, not later inside the event queue or the energy ledger.
  for (const char* bad : {"nan", "inf"}) {
    write(std::string("arrival_s\n1e-3\n") + bad + "\n");
    try {
      (void)load_arrival_trace(path_);
      ADD_FAILURE() << "accepted arrival_s = " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(bad), std::string::npos) << message;
      EXPECT_NE(message.find(path_), std::string::npos) << message;
    }
  }
  EXPECT_THROW(load_arrival_trace("/no/such/trace.csv"),
               std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::serve
