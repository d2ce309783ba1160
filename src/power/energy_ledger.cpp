#include "power/energy_ledger.hpp"

namespace optiplet::power {

double EnergyLedger::total_dynamic_energy_j() const {
  double total = 0.0;
  for (const auto& [name, entry] : entries_) {
    total += entry.dynamic_energy_j;
  }
  return total;
}

double EnergyLedger::total_static_power_w() const {
  double total = 0.0;
  for (const auto& [name, entry] : entries_) {
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
  // Both maps are sorted by name: walk them in step, so each category
  // costs a hinted insert at most instead of two tree lookups. The sums
  // are the same additions in the same order.
  auto it = entries_.begin();
  for (const auto& [name, entry] : other.entries_) {
    while (it != entries_.end() && it->first < name) {
      ++it;
    }
    if (it == entries_.end() || it->first != name) {
      it = entries_.emplace_hint(it, name, EnergyEntry{});
    }
    it->second.dynamic_energy_j += entry.dynamic_energy_j;
    it->second.static_power_w += entry.static_power_w;
    ++it;
  }
}

}  // namespace optiplet::power
