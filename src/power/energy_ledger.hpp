#pragma once
/// \file energy_ledger.hpp
/// Hierarchical energy/power accounting.
///
/// Simulators charge energy (for events) and register static power (for the
/// duration of a run) against a closed set of categories (`Category`) such
/// as `compute.laser`, `network.static` or `noc.router`. At the end of a run
/// the ledger converts everything into the three numbers the paper reports:
/// average power, total energy, and — given the bit volume — energy per bit.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/require.hpp"

namespace optiplet::power {

/// Every category a simulator charges, in name order. The value indexes
/// the ledger's slots and kCategoryNames; a new category takes its place
/// in name order in both.
enum class Category : std::uint8_t {
  kComputeDieStatic,
  kComputeDynamic,
  kComputeElectronics,
  kComputeLaser,
  kComputeRings,
  kMemoryDdrAccess,
  kMemoryHbmAccess,
  kMemoryInterfaceStatic,
  kNetworkPcmReconfig,
  kNetworkStatic,
  kNetworkTransfer,
  kNocLink,
  kNocRouter,
  kNocRouterStatic,
  kServingIdle,
  kServingRepartition,
};

inline constexpr std::size_t kCategoryCount =
    static_cast<std::size_t>(Category::kServingRepartition) + 1;

/// Category names, indexed by Category.
inline constexpr std::array<const char*, kCategoryCount> kCategoryNames = {
    "compute.die_static",   "compute.dynamic",
    "compute.electronics",  "compute.laser",
    "compute.rings",        "memory.ddr_access",
    "memory.hbm_access",    "memory.interface_static",
    "network.pcm_reconfig", "network.static",
    "network.transfer",     "noc.link",
    "noc.router",           "noc.router_static",
    "serving.idle",         "serving.repartition",
};

/// Whether kCategoryNames is strictly ascending, so a walk in Category
/// order lists the categories in name order.
constexpr bool category_names_ascending() {
  for (std::size_t i = 1; i < kCategoryCount; ++i) {
    if (!(std::string_view(kCategoryNames[i - 1]) <
          std::string_view(kCategoryNames[i]))) {
      return false;
    }
  }
  return true;
}
static_assert(category_names_ascending(),
              "kCategoryNames must be strictly ascending");
static_assert(kCategoryCount <= 32, "the charged set is a 32-bit mask");

/// Per-category breakdown entry.
struct EnergyEntry {
  double dynamic_energy_j = 0.0;
  double static_power_w = 0.0;
};

/// Energy/power ledger for one simulated run: one slot per Category, plus
/// the set of categories charged so far. A category charged with 0 J is
/// still listed. Slots start at +0.0 and every charge is >= 0 (a -0.0
/// charge leaves +0.0), so no slot ever holds -0.0 and adding an uncharged
/// slot's +0.0 to any sum leaves it unchanged.
class EnergyLedger {
 public:
  /// One listed category: its name and its sums.
  struct Line {
    const char* name;
    const EnergyEntry& entry;
  };

  /// The charged categories of one ledger, in name order. A view: it
  /// reads the ledger it came from, which must outlive it.
  class Lines {
   public:
    class iterator {
     public:
      iterator(const EnergyEntry* slots, std::uint32_t rest)
          : slots_(slots), rest_(rest) {}
      [[nodiscard]] Line operator*() const {
        const auto i = static_cast<std::size_t>(std::countr_zero(rest_));
        return {kCategoryNames[i], slots_[i]};
      }
      iterator& operator++() {
        rest_ &= rest_ - 1;  // drop the lowest charged category
        return *this;
      }
      [[nodiscard]] bool operator==(const iterator& other) const {
        return rest_ == other.rest_;
      }

     private:
      const EnergyEntry* slots_;
      std::uint32_t rest_;  ///< categories not yet visited
    };

    Lines(const EnergyEntry* slots, std::uint32_t charged)
        : slots_(slots), charged_(charged) {}
    [[nodiscard]] iterator begin() const { return {slots_, charged_}; }
    [[nodiscard]] iterator end() const { return {slots_, 0}; }
    [[nodiscard]] std::size_t size() const {
      return static_cast<std::size_t>(std::popcount(charged_));
    }
    [[nodiscard]] bool empty() const { return charged_ == 0; }

   private:
    const EnergyEntry* slots_;
    std::uint32_t charged_;
  };

  /// Charge `joules` of dynamic energy to `category`.
  void charge_energy(Category category, double joules) {
    OPTIPLET_REQUIRE(joules >= 0.0, "cannot charge negative energy");
    slot(category).dynamic_energy_j += joules;
  }

  /// Register `watts` of static power in `category` (accumulates; call once
  /// per component).
  void add_static_power(Category category, double watts) {
    OPTIPLET_REQUIRE(watts >= 0.0, "static power must be non-negative");
    slot(category).static_power_w += watts;
  }

  /// Add energy directly computed as power*time for a *portion* of the run
  /// (used for duty-cycled components, e.g. gateways active only in some
  /// epochs).
  void charge_power_for(Category category, double watts, double seconds) {
    OPTIPLET_REQUIRE(watts >= 0.0 && seconds >= 0.0,
                     "power and duration must be non-negative");
    slot(category).dynamic_energy_j += watts * seconds;
  }

  /// Total dynamic energy across categories [J].
  [[nodiscard]] double total_dynamic_energy_j() const;

  /// Total registered static power [W].
  [[nodiscard]] double total_static_power_w() const;

  /// Total energy over a run of `duration_s` seconds [J].
  [[nodiscard]] double total_energy_j(double duration_s) const;

  /// Average power over a run of `duration_s` seconds [W].
  [[nodiscard]] double average_power_w(double duration_s) const;

  /// Energy per bit for `bits` useful bits moved/processed [J/bit].
  [[nodiscard]] double energy_per_bit_j(double duration_s,
                                        std::uint64_t bits) const;

  /// Whether `category` was charged (with any amount, 0 J included).
  [[nodiscard]] bool charged(Category category) const {
    return (charged_ & bit(category)) != 0;
  }

  /// The sums of `category`; zero when it was never charged.
  [[nodiscard]] const EnergyEntry& entry(Category category) const {
    return slots_[static_cast<std::size_t>(category)];
  }

  /// The charged categories with their sums, in name order.
  [[nodiscard]] Lines entries() const { return {slots_.data(), charged_}; }

  /// Merge another ledger into this one (category-wise sums).
  void merge(const EnergyLedger& other);

  void reset() { *this = EnergyLedger{}; }

 private:
  static constexpr std::uint32_t bit(Category category) {
    return std::uint32_t{1} << static_cast<unsigned>(category);
  }
  EnergyEntry& slot(Category category) {
    charged_ |= bit(category);
    return slots_[static_cast<std::size_t>(category)];
  }

  std::array<EnergyEntry, kCategoryCount> slots_{};
  std::uint32_t charged_ = 0;  ///< bit c set once Category c was charged
};

}  // namespace optiplet::power
