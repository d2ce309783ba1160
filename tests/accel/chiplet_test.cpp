#include "accel/chiplet.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "accel/platform.hpp"

namespace optiplet::accel {
namespace {

ChipletDesign conv3_design() {
  ChipletDesign d;
  d.kind = MacKind::kConv3;
  d.units = 44;
  d.units_per_bus = 11;
  return d;
}

// The chiplet solves its per-wavelength laser power once, at construction.
// The electrical laser power must still equal its formula evaluated from
// scratch, bit for bit, on every Table-1 and monolithic group.
TEST(Chiplet, LaserPowerMatchesItsFormulaBitForBit) {
  const power::TechParams tech = power::default_tech();
  for (const PlatformSpec& spec :
       {make_table1_spec(), make_monolithic_spec()}) {
    for (const ChipletGroup& group : spec.groups) {
      const ComputeChiplet c(group.chiplet, tech);
      const double sensitivity_dbm =
          photonics::Photodetector(tech.photonic.photodetector)
              .sensitivity_dbm(tech.compute.mac_symbol_rate_hz);
      const double per_wavelength_w = c.bus_budget().required_laser_power_w(
          sensitivity_dbm + tech.compute.analog_precision_penalty_db, 0.5,
          tech.compute.compute_margin_db);
      EXPECT_EQ(c.laser_power_per_wavelength_w(), per_wavelength_w);
      const double optical_w = per_wavelength_w *
                               static_cast<double>(c.unit().size()) *
                               static_cast<double>(c.bus_count());
      EXPECT_EQ(c.laser_electrical_power_w(),
                optical_w / tech.photonic.laser.wall_plug_efficiency *
                    tech.photonic.laser.tec_overhead_factor)
          << to_string(group.chiplet.kind) << ", " << group.chiplet.units
          << " units";
    }
  }
}

TEST(Chiplet, BusCountFromUnitsPerBus) {
  const ComputeChiplet c(conv3_design(), power::default_tech());
  EXPECT_EQ(c.bus_count(), 4u);  // 44 units / 11 per gateway = 4 buses
}

TEST(Chiplet, SustainedThroughputIncludesUtilization) {
  const auto tech = power::default_tech();
  const ComputeChiplet c(conv3_design(), tech);
  EXPECT_NEAR(c.sustained_macs_per_s(),
              44.0 * 9.0 * tech.compute.mac_symbol_rate_hz *
                  tech.compute.mac_utilization,
              1.0);
}

TEST(Chiplet, ComputeTimeInverseOfThroughput) {
  const ComputeChiplet c(conv3_design(), power::default_tech());
  const double t = c.compute_time_s(1'000'000'000);
  EXPECT_NEAR(t * c.sustained_macs_per_s(), 1e9, 1.0);
}

TEST(Chiplet, BusBudgetHasExpectedStructure) {
  const ComputeChiplet c(conv3_design(), power::default_tech());
  const auto& budget = c.bus_budget();
  EXPECT_GE(budget.elements().size(), 7u);
  EXPECT_GT(budget.total_loss_db(), 5.0);
  EXPECT_LT(budget.total_loss_db(), 35.0);
}

TEST(Chiplet, MoreUnitsPerBusMoreLoss) {
  ChipletDesign dense_bus = conv3_design();
  dense_bus.units_per_bus = 22;
  const ComputeChiplet crowded(dense_bus, power::default_tech());
  const ComputeChiplet normal(conv3_design(), power::default_tech());
  EXPECT_GT(crowded.bus_budget().total_loss_db(),
            normal.bus_budget().total_loss_db());
  EXPECT_GT(crowded.laser_power_per_wavelength_w(),
            normal.laser_power_per_wavelength_w());
}

TEST(Chiplet, LongerPathsMoreLaserPower) {
  ChipletDesign far = conv3_design();
  far.extra_path_m = 10.0e-3;
  const ComputeChiplet c_far(far, power::default_tech());
  const ComputeChiplet c_near(conv3_design(), power::default_tech());
  EXPECT_GT(c_far.laser_electrical_power_w(),
            c_near.laser_electrical_power_w());
}

TEST(Chiplet, PowerComponentsPositiveAndPlausible) {
  const ComputeChiplet c(conv3_design(), power::default_tech());
  EXPECT_GT(c.laser_electrical_power_w(), 0.1);
  EXPECT_LT(c.laser_electrical_power_w(), 20.0);
  EXPECT_GT(c.ring_tuning_power_w(), 0.0);
  EXPECT_LT(c.ring_tuning_power_w(), 5.0);
  EXPECT_GT(c.electronics_static_power_w(), 0.0);
  EXPECT_NEAR(c.active_power_w(),
              c.laser_electrical_power_w() + c.ring_tuning_power_w() +
                  c.electronics_static_power_w(),
              1e-9);
}

TEST(Chiplet, RingTuningCountsWeightAndInputBanks) {
  const auto tech = power::default_tech();
  const ComputeChiplet c(conv3_design(), tech);
  // 44 units x 9 weight rings + 4 buses x 9 input rings = 432 rings.
  const double per_ring = c.ring_tuning_power_w() / 432.0;
  EXPECT_GT(per_ring, 0.1e-3);
  EXPECT_LT(per_ring, 3e-3);
}

TEST(Chiplet, DynamicEnergyScalesWithMacs) {
  const ComputeChiplet c(conv3_design(), power::default_tech());
  EXPECT_NEAR(c.dynamic_energy_j(2'000'000),
              2.0 * c.dynamic_energy_j(1'000'000), 1e-12);
  EXPECT_DOUBLE_EQ(c.dynamic_energy_j(0), 0.0);
}

TEST(Chiplet, AllTable1DesignsConstruct) {
  const auto tech = power::default_tech();
  for (auto [kind, units, per_bus] :
       {std::tuple{MacKind::kDense100, 4u, 1u},
        std::tuple{MacKind::kConv7, 8u, 2u},
        std::tuple{MacKind::kConv5, 16u, 4u},
        std::tuple{MacKind::kConv3, 44u, 11u}}) {
    ChipletDesign d;
    d.kind = kind;
    d.units = units;
    d.units_per_bus = per_bus;
    const ComputeChiplet c(d, tech);
    EXPECT_EQ(c.bus_count(), 4u) << to_string(kind);
    EXPECT_GT(c.active_power_w(), 0.0);
  }
}

TEST(Chiplet, Table1ChipletsHaveBalancedThroughput) {
  // Table 1's unit counts equalize per-chiplet MAC throughput (~800 GMAC/s
  // raw at 2 GS/s, scaled by the symbol rate): all four chiplet types land
  // within 2x of each other.
  const auto tech = power::default_tech();
  double min_tp = 1e30;
  double max_tp = 0.0;
  for (auto [kind, units, per_bus] :
       {std::tuple{MacKind::kDense100, 4u, 1u},
        std::tuple{MacKind::kConv7, 8u, 2u},
        std::tuple{MacKind::kConv5, 16u, 4u},
        std::tuple{MacKind::kConv3, 44u, 11u}}) {
    ChipletDesign d;
    d.kind = kind;
    d.units = units;
    d.units_per_bus = per_bus;
    const ComputeChiplet c(d, tech);
    min_tp = std::min(min_tp, c.sustained_macs_per_s());
    max_tp = std::max(max_tp, c.sustained_macs_per_s());
  }
  EXPECT_LT(max_tp / min_tp, 2.0);
}

TEST(Chiplet, RejectsInvalidDesigns) {
  const auto tech = power::default_tech();
  ChipletDesign bad = conv3_design();
  bad.units = 0;
  EXPECT_THROW(ComputeChiplet(bad, tech), std::invalid_argument);
  bad = conv3_design();
  bad.units_per_bus = 0;
  EXPECT_THROW(ComputeChiplet(bad, tech), std::invalid_argument);
  bad = conv3_design();
  bad.units_per_bus = 100;  // more than units
  EXPECT_THROW(ComputeChiplet(bad, tech), std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::accel
