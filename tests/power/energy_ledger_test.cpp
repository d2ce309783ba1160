#include "power/energy_ledger.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

namespace optiplet::power {
namespace {

/// What merge() must produce: the category-wise sums by direct lookup.
std::map<std::string, EnergyEntry> lookup_merge(const EnergyLedger& into,
                                                const EnergyLedger& from) {
  std::map<std::string, EnergyEntry> out = into.entries();
  for (const auto& [name, entry] : from.entries()) {
    out[name].dynamic_energy_j += entry.dynamic_energy_j;
    out[name].static_power_w += entry.static_power_w;
  }
  return out;
}

void expect_entries(const EnergyLedger& ledger,
                    const std::map<std::string, EnergyEntry>& expected) {
  ASSERT_EQ(ledger.entries().size(), expected.size());
  for (const auto& [name, entry] : expected) {
    ASSERT_EQ(ledger.entries().count(name), 1u) << name;
    const EnergyEntry& got = ledger.entries().at(name);
    EXPECT_EQ(got.dynamic_energy_j, entry.dynamic_energy_j) << name;
    EXPECT_EQ(got.static_power_w, entry.static_power_w) << name;
  }
}

TEST(EnergyLedger, StartsEmpty) {
  EnergyLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.total_dynamic_energy_j(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_static_power_w(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_j(1.0), 0.0);
}

TEST(EnergyLedger, DynamicEnergyAccumulatesPerCategory) {
  EnergyLedger ledger;
  ledger.charge_energy("laser", 1.0);
  ledger.charge_energy("laser", 2.0);
  ledger.charge_energy("rings", 0.5);
  EXPECT_DOUBLE_EQ(ledger.total_dynamic_energy_j(), 3.5);
  EXPECT_DOUBLE_EQ(ledger.entries().at("laser").dynamic_energy_j, 3.0);
}

TEST(EnergyLedger, StaticPowerIntegratesOverDuration) {
  EnergyLedger ledger;
  ledger.add_static_power("router", 2.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_j(3.0), 6.0);
  EXPECT_DOUBLE_EQ(ledger.average_power_w(3.0), 2.0);
}

TEST(EnergyLedger, ChargePowerForDutyCycledComponents) {
  EnergyLedger ledger;
  ledger.charge_power_for("gateway", 10.0, 0.25);
  EXPECT_DOUBLE_EQ(ledger.total_dynamic_energy_j(), 2.5);
}

TEST(EnergyLedger, MixedStaticAndDynamic) {
  EnergyLedger ledger;
  ledger.add_static_power("noc", 1.0);
  ledger.charge_energy("noc", 4.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_j(2.0), 6.0);
  EXPECT_DOUBLE_EQ(ledger.average_power_w(2.0), 3.0);
}

TEST(EnergyLedger, EnergyPerBit) {
  EnergyLedger ledger;
  ledger.charge_energy("x", 1e-6);
  EXPECT_DOUBLE_EQ(ledger.energy_per_bit_j(1.0, 1000), 1e-9);
}

TEST(EnergyLedger, MergeCombinesCategories) {
  EnergyLedger a;
  a.charge_energy("laser", 1.0);
  a.add_static_power("laser", 2.0);
  EnergyLedger b;
  b.charge_energy("laser", 3.0);
  b.charge_energy("rings", 1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.entries().at("laser").dynamic_energy_j, 4.0);
  EXPECT_DOUBLE_EQ(a.entries().at("laser").static_power_w, 2.0);
  EXPECT_DOUBLE_EQ(a.entries().at("rings").dynamic_energy_j, 1.0);
}

TEST(EnergyLedger, MergeInterleavesCategoriesExactly) {
  EnergyLedger target;
  target.charge_energy("core", 0.1);
  target.add_static_power("core", 1.5);
  target.charge_energy("laser", 0.3);
  target.add_static_power("rings", 2.25);

  EnergyLedger other;
  other.charge_energy("adc", 1.0);  // before every target category
  other.add_static_power("adc", 0.5);
  other.charge_energy("core", 0.2);  // shared with the target
  other.add_static_power("core", 0.7);
  other.charge_energy("dac", 3.0);  // between target categories
  other.add_static_power("mzi", 4.0);
  other.charge_energy("rings", 0.4);  // the target's last category
  other.charge_energy("sram", 5.0);  // after every target category
  other.add_static_power("sram", 6.0);

  const auto expected = lookup_merge(target, other);
  target.merge(other);
  expect_entries(target, expected);
  EXPECT_DOUBLE_EQ(target.entries().at("core").dynamic_energy_j, 0.3);
  EXPECT_DOUBLE_EQ(target.entries().at("core").static_power_w, 2.2);
  EXPECT_DOUBLE_EQ(target.entries().at("rings").dynamic_energy_j, 0.4);
  EXPECT_DOUBLE_EQ(target.entries().at("rings").static_power_w, 2.25);
  EXPECT_DOUBLE_EQ(target.entries().at("mzi").static_power_w, 4.0);
  EXPECT_DOUBLE_EQ(target.entries().at("sram").dynamic_energy_j, 5.0);

  // An empty source changes nothing; an empty target becomes a copy.
  EnergyLedger unchanged = target;
  unchanged.merge(EnergyLedger{});
  expect_entries(unchanged, target.entries());
  EnergyLedger fresh;
  fresh.merge(target);
  expect_entries(fresh, target.entries());

  // Merging a ledger into itself doubles every category.
  const auto doubled = lookup_merge(target, target);
  target.merge(target);
  expect_entries(target, doubled);
}

TEST(EnergyLedger, ResetClearsEverything) {
  EnergyLedger ledger;
  ledger.charge_energy("x", 1.0);
  ledger.reset();
  EXPECT_TRUE(ledger.entries().empty());
}

TEST(EnergyLedger, RejectsInvalidCharges) {
  EnergyLedger ledger;
  EXPECT_THROW(ledger.charge_energy("x", -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.add_static_power("x", -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.charge_power_for("x", -1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(ledger.charge_power_for("x", 1.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW((void)ledger.average_power_w(0.0), std::invalid_argument);
  EXPECT_THROW((void)ledger.energy_per_bit_j(1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::power
