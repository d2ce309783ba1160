#pragma once
/// \file chiplet.hpp
/// Compute chiplet model: a set of photonic MAC units of one class organized
/// into broadcast-and-weight buses (one bus per gateway, Table 1's
/// "MACs per gateway"), with a device-level laser budget.
///
/// The laser budget is the scalability mechanism the paper leans on: every
/// unit on a bus taps optical power (10*log10(U) split), adds tap excess
/// loss, and lengthens the bus waveguide, so the per-wavelength laser power
/// grows quickly with units-per-bus and die span. Monolithic CrossLight
/// packs more units on longer buses on a bigger die, which is exactly why
/// its energy efficiency trails the chipletized version (paper §V).

#include <cstdint>

#include "accel/mac_unit.hpp"
#include "photonics/link_budget.hpp"
#include "photonics/photodetector.hpp"
#include "power/tech_params.hpp"
#include "util/units.hpp"

namespace optiplet::accel {

/// Physical/organizational design of one compute chiplet (or of one unit
/// group on a monolithic die — same model, different geometry).
struct ChipletDesign {
  MacKind kind = MacKind::kConv3;
  /// MAC units on the chiplet (Table 1: "Number of MACs per chiplet").
  std::uint32_t units = 44;
  /// Units sharing one broadcast bus = one gateway's units
  /// (Table 1: "Number of MACs per gateway").
  std::uint32_t units_per_bus = 11;
  /// Extra waveguide path from the coupler to the first unit [m]
  /// (die-span dependent; monolithic dies pay more).
  double extra_path_m = 2.0 * units::mm;
  /// Waveguide crossings on the worst-case bus path.
  std::uint32_t crossings = 4;
};

/// A compute chiplet (Fig. 3: "Chiplet 1..4"), or the monolithic die's unit
/// group when `ChipletDesign` carries monolithic geometry.
class ComputeChiplet {
 public:
  ComputeChiplet(const ChipletDesign& design, const power::TechParams& tech);

  [[nodiscard]] const ChipletDesign& design() const { return design_; }
  [[nodiscard]] MacKind kind() const { return design_.kind; }
  [[nodiscard]] std::uint32_t unit_count() const { return design_.units; }
  [[nodiscard]] std::uint32_t bus_count() const;

  /// Sustained MAC throughput [MAC/s] (peak * utilization).
  [[nodiscard]] double sustained_macs_per_s() const;

  /// Time to execute `macs` multiply-accumulates on this chiplet alone [s].
  [[nodiscard]] double compute_time_s(std::uint64_t macs) const;

  /// Optical link budget of one broadcast bus (laser output -> worst unit
  /// photodetector).
  [[nodiscard]] const photonics::LinkBudget& bus_budget() const {
    return bus_budget_;
  }

  /// Required laser optical power per wavelength per bus [W].
  [[nodiscard]] double laser_power_per_wavelength_w() const {
    return laser_power_per_wavelength_w_;
  }

  /// Electrical laser power for the whole chiplet while computing [W]
  /// (all buses, S wavelengths each, wall-plug + TEC).
  [[nodiscard]] double laser_electrical_power_w() const;

  /// Static ring-tuning power: weight banks + the per-bus input banks [W].
  [[nodiscard]] double ring_tuning_power_w() const;

  /// Static electronics power (unit drivers/bias) [W].
  [[nodiscard]] double electronics_static_power_w() const;

  /// Total power while the chiplet executes a layer [W].
  [[nodiscard]] double active_power_w() const;

  /// Dynamic energy for `macs` MACs [J] (DAC/ADC/buffers; activation DACs
  /// amortized across the units of a bus).
  [[nodiscard]] double dynamic_energy_j(std::uint64_t macs) const;

  [[nodiscard]] const PhotonicMacUnit& unit() const { return unit_; }

 private:
  void build_bus_budget();

  ChipletDesign design_;
  power::TechParams tech_;
  PhotonicMacUnit unit_;
  photonics::LinkBudget bus_budget_;
  double laser_power_per_wavelength_w_ = 0.0;  // solved once from the budget
};

}  // namespace optiplet::accel
