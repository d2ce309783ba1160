#include "util/math.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace optiplet::util {
namespace {

TEST(MathDb, RoundTripsLinearRatios) {
  for (double ratio : {0.001, 0.5, 1.0, 2.0, 100.0, 1e6}) {
    EXPECT_NEAR(from_db(to_db(ratio)), ratio, 1e-9 * ratio);
  }
}

TEST(MathDb, KnownAnchors) {
  EXPECT_NEAR(to_db(10.0), 10.0, 1e-12);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
  EXPECT_NEAR(to_db(2.0), 3.0103, 1e-4);
  EXPECT_NEAR(from_db(3.0), 1.9953, 1e-4);
}

TEST(MathDb, RejectsNonPositiveRatio) {
  EXPECT_THROW(to_db(0.0), std::invalid_argument);
  EXPECT_THROW(to_db(-1.0), std::invalid_argument);
}

TEST(MathDbm, OneMilliwattIsZeroDbm) {
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-15);
}

TEST(MathDbm, TenDbmIsTenMilliwatt) {
  EXPECT_NEAR(dbm_to_watts(10.0), 10e-3, 1e-12);
}

TEST(MathDbm, NegativeDbmBelowMilliwatt) {
  EXPECT_NEAR(dbm_to_watts(-26.0), 2.512e-6, 1e-9);
}

TEST(MathLerp, Endpoints) {
  EXPECT_DOUBLE_EQ(lerp(2.0, 6.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 6.0, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(lerp(2.0, 6.0, 0.5), 4.0);
}

}  // namespace
}  // namespace optiplet::util
