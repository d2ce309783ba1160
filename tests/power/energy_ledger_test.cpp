#include "power/energy_ledger.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "util/rng.hpp"

namespace optiplet::power {
namespace {

static_assert(category_names_ascending());

/// The ledger's semantics as a by-name map: a charge creates its category
/// (0 J included), a merge adds every category of the source into the
/// target, totals sum in name order.
using Reference = std::map<std::string, EnergyEntry>;

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

Category category_at(std::size_t i) { return static_cast<Category>(i); }

/// The ledger lists exactly the reference's categories, in its order, with
/// bit-identical sums and totals; every other slot reads +0.0.
void expect_matches(const EnergyLedger& ledger, const Reference& expected) {
  ASSERT_EQ(ledger.entries().size(), expected.size());
  EXPECT_EQ(ledger.entries().empty(), expected.empty());
  auto want = expected.begin();
  for (const auto& [name, entry] : ledger.entries()) {
    ASSERT_NE(want, expected.end()) << name;
    EXPECT_EQ(name, want->first);
    EXPECT_EQ(bits(entry.dynamic_energy_j), bits(want->second.dynamic_energy_j))
        << name;
    EXPECT_EQ(bits(entry.static_power_w), bits(want->second.static_power_w))
        << name;
    ++want;
  }
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const Category c = category_at(i);
    const char* name = kCategoryNames[i];
    const auto it = expected.find(name);
    EXPECT_EQ(ledger.charged(c), it != expected.end()) << name;
    const EnergyEntry zero;
    const EnergyEntry& want_entry = it != expected.end() ? it->second : zero;
    EXPECT_EQ(bits(ledger.entry(c).dynamic_energy_j),
              bits(want_entry.dynamic_energy_j))
        << name;
    EXPECT_EQ(bits(ledger.entry(c).static_power_w),
              bits(want_entry.static_power_w))
        << name;
  }
  double dynamic_j = 0.0;
  double static_w = 0.0;
  for (const auto& [name, entry] : expected) {
    dynamic_j += entry.dynamic_energy_j;
    static_w += entry.static_power_w;
  }
  EXPECT_EQ(bits(ledger.total_dynamic_energy_j()), bits(dynamic_j));
  EXPECT_EQ(bits(ledger.total_static_power_w()), bits(static_w));
  EXPECT_EQ(bits(ledger.total_energy_j(0.375)),
            bits(dynamic_j + static_w * 0.375));
}

void merge_into(Reference& into, const Reference& from) {
  const Reference source = from;  // `from` may be `into`
  for (const auto& [name, entry] : source) {
    into[name].dynamic_energy_j += entry.dynamic_energy_j;
    into[name].static_power_w += entry.static_power_w;
  }
}

TEST(EnergyLedger, StartsEmpty) {
  EnergyLedger ledger;
  EXPECT_TRUE(ledger.entries().empty());
  EXPECT_DOUBLE_EQ(ledger.total_dynamic_energy_j(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_static_power_w(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_j(1.0), 0.0);
}

TEST(EnergyLedger, DynamicEnergyAccumulatesPerCategory) {
  EnergyLedger ledger;
  ledger.charge_energy(Category::kComputeLaser, 1.0);
  ledger.charge_energy(Category::kComputeLaser, 2.0);
  ledger.charge_energy(Category::kComputeRings, 0.5);
  EXPECT_DOUBLE_EQ(ledger.total_dynamic_energy_j(), 3.5);
  EXPECT_DOUBLE_EQ(ledger.entry(Category::kComputeLaser).dynamic_energy_j,
                   3.0);
}

TEST(EnergyLedger, StaticPowerIntegratesOverDuration) {
  EnergyLedger ledger;
  ledger.add_static_power(Category::kNocRouterStatic, 2.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_j(3.0), 6.0);
  EXPECT_DOUBLE_EQ(ledger.average_power_w(3.0), 2.0);
}

TEST(EnergyLedger, ChargePowerForDutyCycledComponents) {
  EnergyLedger ledger;
  ledger.charge_power_for(Category::kNetworkStatic, 10.0, 0.25);
  EXPECT_DOUBLE_EQ(ledger.total_dynamic_energy_j(), 2.5);
}

TEST(EnergyLedger, MixedStaticAndDynamic) {
  EnergyLedger ledger;
  ledger.add_static_power(Category::kNocRouter, 1.0);
  ledger.charge_energy(Category::kNocRouter, 4.0);
  EXPECT_DOUBLE_EQ(ledger.total_energy_j(2.0), 6.0);
  EXPECT_DOUBLE_EQ(ledger.average_power_w(2.0), 3.0);
}

TEST(EnergyLedger, EnergyPerBit) {
  EnergyLedger ledger;
  ledger.charge_energy(Category::kNetworkTransfer, 1e-6);
  EXPECT_DOUBLE_EQ(ledger.energy_per_bit_j(1.0, 1000), 1e-9);
}

TEST(EnergyLedger, ZeroJouleChargeIsListed) {
  // A run without a ReSiPI reconfiguration still lists its 0 J category.
  EnergyLedger ledger;
  ledger.charge_energy(Category::kNetworkPcmReconfig, 0.0);
  ledger.charge_power_for(Category::kServingIdle, 0.0, 1.0);
  expect_matches(ledger, {{"network.pcm_reconfig", {}}, {"serving.idle", {}}});
}

TEST(EnergyLedger, ListsEveryCategoryByNameInNameOrder) {
  EnergyLedger ledger;
  for (std::size_t i = kCategoryCount; i-- > 0;) {
    ledger.charge_energy(category_at(i), static_cast<double>(i));
  }
  std::size_t i = 0;
  std::string previous;
  for (const auto& [name, entry] : ledger.entries()) {
    EXPECT_STREQ(name, kCategoryNames[i]);
    EXPECT_EQ(entry.dynamic_energy_j, static_cast<double>(i));
    EXPECT_LT(previous, name);
    previous = name;
    ++i;
  }
  EXPECT_EQ(i, kCategoryCount);

  // Each enumerator indexes the name it spells.
  const std::pair<Category, std::string_view> spelled[] = {
      {Category::kComputeDieStatic, "compute.die_static"},
      {Category::kComputeDynamic, "compute.dynamic"},
      {Category::kComputeElectronics, "compute.electronics"},
      {Category::kComputeLaser, "compute.laser"},
      {Category::kComputeRings, "compute.rings"},
      {Category::kMemoryDdrAccess, "memory.ddr_access"},
      {Category::kMemoryHbmAccess, "memory.hbm_access"},
      {Category::kMemoryInterfaceStatic, "memory.interface_static"},
      {Category::kNetworkPcmReconfig, "network.pcm_reconfig"},
      {Category::kNetworkStatic, "network.static"},
      {Category::kNetworkTransfer, "network.transfer"},
      {Category::kNocLink, "noc.link"},
      {Category::kNocRouter, "noc.router"},
      {Category::kNocRouterStatic, "noc.router_static"},
      {Category::kServingIdle, "serving.idle"},
      {Category::kServingRepartition, "serving.repartition"},
  };
  ASSERT_EQ(std::size(spelled), kCategoryCount);
  for (const auto& [category, name] : spelled) {
    EXPECT_EQ(kCategoryNames[static_cast<std::size_t>(category)], name);
  }
}

TEST(EnergyLedger, MergeCombinesCategories) {
  EnergyLedger a;
  a.charge_energy(Category::kComputeLaser, 1.0);
  a.add_static_power(Category::kComputeLaser, 2.0);
  EnergyLedger b;
  b.charge_energy(Category::kComputeLaser, 3.0);
  b.charge_energy(Category::kComputeRings, 1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.entry(Category::kComputeLaser).dynamic_energy_j, 4.0);
  EXPECT_DOUBLE_EQ(a.entry(Category::kComputeLaser).static_power_w, 2.0);
  EXPECT_DOUBLE_EQ(a.entry(Category::kComputeRings).dynamic_energy_j, 1.0);
}

TEST(EnergyLedger, MergeInterleavesCategoriesExactly) {
  EnergyLedger target;
  Reference target_ref;
  target.charge_energy(Category::kComputeElectronics, 0.1);
  target.add_static_power(Category::kComputeElectronics, 1.5);
  target_ref["compute.electronics"] = {0.1, 1.5};
  target.charge_energy(Category::kMemoryHbmAccess, 0.3);
  target_ref["memory.hbm_access"] = {0.3, 0.0};
  target.add_static_power(Category::kNocRouter, 2.25);
  target_ref["noc.router"] = {0.0, 2.25};

  EnergyLedger other;
  Reference other_ref;
  // Before every target category.
  other.charge_energy(Category::kComputeDieStatic, 1.0);
  other.add_static_power(Category::kComputeDieStatic, 0.5);
  other_ref["compute.die_static"] = {1.0, 0.5};
  // Shared with the target.
  other.charge_energy(Category::kComputeElectronics, 0.2);
  other.add_static_power(Category::kComputeElectronics, 0.7);
  other_ref["compute.electronics"] = {0.2, 0.7};
  // Between target categories.
  other.charge_energy(Category::kComputeLaser, 3.0);
  other_ref["compute.laser"] = {3.0, 0.0};
  other.add_static_power(Category::kNetworkStatic, 4.0);
  other_ref["network.static"] = {0.0, 4.0};
  // The target's last category.
  other.charge_energy(Category::kNocRouter, 0.4);
  other_ref["noc.router"] = {0.4, 0.0};
  // After every target category.
  other.charge_energy(Category::kServingIdle, 5.0);
  other.add_static_power(Category::kServingIdle, 6.0);
  other_ref["serving.idle"] = {5.0, 6.0};
  expect_matches(target, target_ref);
  expect_matches(other, other_ref);

  target.merge(other);
  merge_into(target_ref, other_ref);
  expect_matches(target, target_ref);
  EXPECT_DOUBLE_EQ(
      target.entry(Category::kComputeElectronics).dynamic_energy_j, 0.3);
  EXPECT_DOUBLE_EQ(target.entry(Category::kComputeElectronics).static_power_w,
                   2.2);
  EXPECT_DOUBLE_EQ(target.entry(Category::kNocRouter).dynamic_energy_j, 0.4);
  EXPECT_DOUBLE_EQ(target.entry(Category::kNocRouter).static_power_w, 2.25);
  EXPECT_DOUBLE_EQ(target.entry(Category::kNetworkStatic).static_power_w,
                   4.0);
  EXPECT_DOUBLE_EQ(target.entry(Category::kServingIdle).dynamic_energy_j,
                   5.0);

  // An empty source changes nothing; an empty target becomes a copy.
  EnergyLedger unchanged = target;
  unchanged.merge(EnergyLedger{});
  expect_matches(unchanged, target_ref);
  EnergyLedger fresh;
  fresh.merge(target);
  expect_matches(fresh, target_ref);

  // Merging a ledger into itself doubles every category.
  target.merge(target);
  merge_into(target_ref, target_ref);
  expect_matches(target, target_ref);
}

TEST(EnergyLedger, MatchesAByNameReferenceUnderRandomInterleavings) {
  // Seeded scripts of the three charges, merges (self-merges and empty
  // sources included) and resets across four ledgers, each mirrored on a
  // by-name map; after every step the touched ledger must list the map's
  // categories in its order with bit-identical sums and totals. Amounts
  // span 20 decades and include +0.0 and -0.0 (which passes the
  // non-negativity check).
  constexpr std::size_t kLedgers = 4;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    util::Xoshiro256 rng(seed);
    std::array<EnergyLedger, kLedgers> ledgers;
    std::array<Reference, kLedgers> refs;
    const auto amount = [&rng]() {
      switch (rng.next_below(8)) {
        case 0:
          return 0.0;
        case 1:
          return -0.0;
        default: {
          const double mantissa = rng.next_double();
          const auto decade = static_cast<double>(rng.next_below(20));
          return mantissa * std::pow(10.0, decade - 15.0);
        }
      }
    };
    for (int step = 0; step < 400; ++step) {
      const std::size_t a = rng.next_below(kLedgers);
      const std::size_t i = rng.next_below(kCategoryCount);
      const Category c = category_at(i);
      const std::string name = kCategoryNames[i];
      switch (rng.next_below(10)) {
        case 0:
        case 1: {
          const double j = amount();
          ledgers[a].charge_energy(c, j);
          refs[a][name].dynamic_energy_j += j;
          break;
        }
        case 2:
        case 3: {
          const double w = amount();
          ledgers[a].add_static_power(c, w);
          refs[a][name].static_power_w += w;
          break;
        }
        case 4:
        case 5: {
          const double w = amount();
          const double s = amount();
          ledgers[a].charge_power_for(c, w, s);
          refs[a][name].dynamic_energy_j += w * s;
          break;
        }
        case 6:
        case 7:
        case 8: {
          // b == a is a self-merge; a reset ledger is an empty source.
          const std::size_t b = rng.next_below(kLedgers);
          ledgers[a].merge(ledgers[b]);
          merge_into(refs[a], refs[b]);
          break;
        }
        default:
          ledgers[a].reset();
          refs[a].clear();
          break;
      }
      expect_matches(ledgers[a], refs[a]);
      if (testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

TEST(EnergyLedger, ResetClearsEverything) {
  EnergyLedger ledger;
  ledger.charge_energy(Category::kComputeDynamic, 1.0);
  ledger.reset();
  EXPECT_TRUE(ledger.entries().empty());
  EXPECT_FALSE(ledger.charged(Category::kComputeDynamic));
  EXPECT_EQ(bits(ledger.entry(Category::kComputeDynamic).dynamic_energy_j),
            bits(0.0));
}

TEST(EnergyLedger, RejectsInvalidCharges) {
  EnergyLedger ledger;
  EXPECT_THROW(ledger.charge_energy(Category::kComputeLaser, -1.0),
               std::invalid_argument);
  EXPECT_THROW(ledger.add_static_power(Category::kComputeLaser, -1.0),
               std::invalid_argument);
  EXPECT_THROW(ledger.charge_power_for(Category::kComputeLaser, -1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(ledger.charge_power_for(Category::kComputeLaser, 1.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(ledger.charge_energy(Category::kComputeLaser, std::nan("")),
               std::invalid_argument);
  // A refused charge lists nothing.
  EXPECT_TRUE(ledger.entries().empty());
  EXPECT_THROW((void)ledger.average_power_w(0.0), std::invalid_argument);
  EXPECT_THROW((void)ledger.energy_per_bit_j(1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace optiplet::power
