#include "accel/mac_unit.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace optiplet::accel {
namespace {

TEST(MacUnit, VectorSizesMatchTable1Classes) {
  EXPECT_EQ(vector_size(MacKind::kDense100), 100u);
  EXPECT_EQ(vector_size(MacKind::kConv7), 49u);
  EXPECT_EQ(vector_size(MacKind::kConv5), 25u);
  EXPECT_EQ(vector_size(MacKind::kConv3), 9u);
}

TEST(MacUnit, ThroughputIsSizeTimesRate) {
  const power::ComputeTech tech;
  const PhotonicMacUnit unit(MacKind::kConv3, tech);
  EXPECT_NEAR(unit.peak_macs_per_s(), 9.0 * tech.mac_symbol_rate_hz, 1.0);
}

TEST(MacUnit, LargerUnitsHaveMoreThroughput) {
  const power::ComputeTech tech;
  EXPECT_GT(PhotonicMacUnit(MacKind::kDense100, tech).peak_macs_per_s(),
            PhotonicMacUnit(MacKind::kConv7, tech).peak_macs_per_s());
  EXPECT_GT(PhotonicMacUnit(MacKind::kConv7, tech).peak_macs_per_s(),
            PhotonicMacUnit(MacKind::kConv5, tech).peak_macs_per_s());
}

TEST(MacUnit, RingCountEqualsVectorSize) {
  const power::ComputeTech tech;
  EXPECT_EQ(PhotonicMacUnit(MacKind::kConv5, tech).ring_count(), 25u);
}

TEST(MacUnit, WeightReuseAmortizesDacEnergy) {
  const power::ComputeTech tech;
  const PhotonicMacUnit unit(MacKind::kConv3, tech);
  EXPECT_GT(unit.energy_per_symbol_j(1.0), unit.energy_per_symbol_j(64.0));
}

TEST(MacUnit, EnergyPerSymbolPicojouleClass) {
  const power::ComputeTech tech;
  const PhotonicMacUnit unit(MacKind::kConv3, tech);
  const double e = unit.energy_per_symbol_j(64.0);
  EXPECT_GT(e, 0.1e-12);
  EXPECT_LT(e, 50e-12);
}

TEST(MacUnit, EnergyPerMacBelowElectronicBaseline) {
  // The photonic MAC must beat ~1 pJ/MAC digital arithmetic, or the whole
  // premise collapses.
  const power::ComputeTech tech;
  const PhotonicMacUnit unit(MacKind::kDense100, tech);
  const double per_mac = unit.energy_per_symbol_j(64.0) / 100.0;
  EXPECT_LT(per_mac, 1e-12);
}

TEST(MacUnit, StaticPowerScalesWithSize) {
  const power::ComputeTech tech;
  EXPECT_GT(PhotonicMacUnit(MacKind::kDense100, tech).static_power_w(),
            PhotonicMacUnit(MacKind::kConv3, tech).static_power_w());
}

TEST(MacUnit, RejectsInvalidReuse) {
  const power::ComputeTech tech;
  const PhotonicMacUnit unit(MacKind::kConv3, tech);
  EXPECT_THROW((void)unit.energy_per_symbol_j(0.5), std::invalid_argument);
}

TEST(MacUnit, KindNamesAreStable) {
  EXPECT_STREQ(to_string(MacKind::kDense100), "100-unit dense");
  EXPECT_STREQ(to_string(MacKind::kConv3), "3x3 conv");
}

}  // namespace
}  // namespace optiplet::accel
