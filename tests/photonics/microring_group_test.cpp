#include "photonics/microring_group.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "util/units.hpp"

namespace optiplet::photonics {
namespace {

MicroringGroupConfig compute_mrg_config() {
  MicroringGroupConfig c;
  c.wavelengths_per_row = 16;
  c.modulator_rows = 1;
  c.filter_rows = 1;
  return c;
}

TEST(MicroringGroup, RingCountsMatchRows) {
  const WdmGrid grid = make_cband_grid(64);
  const MicroringGroup mrg(compute_mrg_config(), grid, 0);
  EXPECT_EQ(mrg.ring_count(), 32u);
  EXPECT_EQ(mrg.modulator_count(), 16u);
  EXPECT_EQ(mrg.filter_count(), 16u);
}

TEST(MicroringGroup, MemoryMrgHasFilterRowPerComputeGateway) {
  // Fig. 6: MRGm holds one filter row per compute gateway.
  const WdmGrid grid = make_cband_grid(64);
  MicroringGroupConfig c;
  c.wavelengths_per_row = 64;
  c.modulator_rows = 1;
  c.filter_rows = 32;  // 8 chiplets x 4 gateways
  const MicroringGroup mrg(c, grid, 0);
  EXPECT_EQ(mrg.ring_count(), 33u * 64u);
}

TEST(MicroringGroup, StaticTuningPowerScalesWithRings) {
  const WdmGrid grid = make_cband_grid(64);
  MicroringGroupConfig small = compute_mrg_config();
  MicroringGroupConfig big = compute_mrg_config();
  big.filter_rows = 8;
  const MicroringGroup m_small(small, grid, 0);
  const MicroringGroup m_big(big, grid, 0);
  EXPECT_GT(m_big.static_tuning_power_w(), m_small.static_tuning_power_w());
  // Per-ring power identical: totals proportional to ring counts.
  EXPECT_NEAR(m_big.static_tuning_power_w() / m_big.ring_count(),
              m_small.static_tuning_power_w() / m_small.ring_count(), 1e-12);
}

// The group keeps one reference ring and sums its hold power once, at
// construction: the total must equal a walk over every ring that adds each
// ring's term in turn, bit for bit (a product ring_count * term would not).
TEST(MicroringGroup, HoldPowerIsThePerRingSumBitForBit) {
  const WdmGrid grid = make_cband_grid(64);
  MicroringGroupConfig memory;  // Fig. 6 MRGm: 1 + 32 rows of 64 rings
  memory.wavelengths_per_row = 64;
  memory.modulator_rows = 1;
  memory.filter_rows = 32;
  for (const MicroringGroupConfig& c : {compute_mrg_config(), memory}) {
    const MicroringGroup mrg(c, grid, 0);
    const MicroringTuning& tuning = c.ring_tuning;
    double expected = 0.0;
    for (std::size_t r = 0; r < mrg.ring_count(); ++r) {
      const double thermal_shift =
          std::max(0.0, 0.4 * units::nm - tuning.eo_range_m);
      expected += thermal_shift / tuning.to_efficiency_m_per_w +
                  tuning.driver_static_w;
    }
    EXPECT_EQ(mrg.static_tuning_power_w(), expected)
        << mrg.ring_count() << " rings";
  }
}

TEST(MicroringGroup, PerRingTuningPowerInMilliwattClass) {
  const WdmGrid grid = make_cband_grid(64);
  const MicroringGroup mrg(compute_mrg_config(), grid, 0);
  const double per_ring =
      mrg.static_tuning_power_w() / static_cast<double>(mrg.ring_count());
  EXPECT_GT(per_ring, 0.1e-3);
  EXPECT_LT(per_ring, 5e-3);
}

TEST(MicroringGroup, ModulationEnergyScalesWithBits) {
  const WdmGrid grid = make_cband_grid(64);
  const MicroringGroup mrg(compute_mrg_config(), grid, 0);
  EXPECT_DOUBLE_EQ(mrg.modulation_energy_j(0), 0.0);
  EXPECT_GT(mrg.modulation_energy_j(1000), 0.0);
  EXPECT_NEAR(mrg.modulation_energy_j(2000),
              2.0 * mrg.modulation_energy_j(1000), 1e-18);
}

TEST(MicroringGroup, AreaProportionalToRings) {
  const WdmGrid grid = make_cband_grid(64);
  const MicroringGroup mrg(compute_mrg_config(), grid, 0);
  EXPECT_NEAR(mrg.area_m2(),
              32.0 * compute_mrg_config().area_per_ring_m2, 1e-15);
}

TEST(MicroringGroup, ThroughLossSmallButPositive) {
  const WdmGrid grid = make_cband_grid(64);
  const MicroringGroup mrg(compute_mrg_config(), grid, 0);
  const double loss = mrg.through_loss_db();
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 1.0);  // a single MRG row must not eat the budget
}

TEST(MicroringGroup, DropLossIsModest) {
  const WdmGrid grid = make_cband_grid(64);
  const MicroringGroup mrg(compute_mrg_config(), grid, 0);
  EXPECT_GT(mrg.drop_loss_db(), 0.0);
  EXPECT_LT(mrg.drop_loss_db(), 3.0);
}

TEST(MicroringGroup, ChannelOffsetSelectsSubBand) {
  const WdmGrid grid = make_cband_grid(64);
  const MicroringGroup mrg(compute_mrg_config(), grid, 16);
  EXPECT_NEAR(mrg.reference_ring().resonance_m(), grid.wavelength_m(16),
              1e-15);
}

TEST(MicroringGroup, RejectsRowsBeyondGrid) {
  const WdmGrid grid = make_cband_grid(16);
  MicroringGroupConfig c = compute_mrg_config();
  EXPECT_THROW(MicroringGroup(c, grid, 8), std::invalid_argument);
  c.wavelengths_per_row = 0;
  EXPECT_THROW(MicroringGroup(c, grid, 0), std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::photonics
