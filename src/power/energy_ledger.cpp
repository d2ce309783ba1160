#include "power/energy_ledger.hpp"

namespace optiplet::power {

double EnergyLedger::total_dynamic_energy_j() const {
  double total = 0.0;
  for (const auto& [name, entry] : entries()) {
    total += entry.dynamic_energy_j;
  }
  return total;
}

double EnergyLedger::total_static_power_w() const {
  double total = 0.0;
  for (const auto& [name, entry] : entries()) {
    total += entry.static_power_w;
  }
  return total;
}

double EnergyLedger::total_energy_j(double duration_s) const {
  OPTIPLET_REQUIRE(duration_s >= 0.0, "duration must be non-negative");
  return total_dynamic_energy_j() + total_static_power_w() * duration_s;
}

double EnergyLedger::average_power_w(double duration_s) const {
  OPTIPLET_REQUIRE(duration_s > 0.0, "duration must be positive");
  return total_energy_j(duration_s) / duration_s;
}

double EnergyLedger::energy_per_bit_j(double duration_s,
                                      std::uint64_t bits) const {
  OPTIPLET_REQUIRE(bits > 0, "energy per bit needs a positive bit count");
  return total_energy_j(duration_s) / static_cast<double>(bits);
}

void EnergyLedger::merge(const EnergyLedger& other) {
  // Slot by slot, with no branch: a slot `other` never charged adds +0.0,
  // which leaves every slot here unchanged (none holds -0.0), so each
  // charged category gets exactly the one addition a by-name merge makes.
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    slots_[i].dynamic_energy_j += other.slots_[i].dynamic_energy_j;
    slots_[i].static_power_w += other.slots_[i].static_power_w;
  }
  charged_ |= other.charged_;
}

}  // namespace optiplet::power
