#include "accel/chiplet.hpp"

#include <cmath>

#include "util/math.hpp"
#include "util/require.hpp"

namespace optiplet::accel {

ComputeChiplet::ComputeChiplet(const ChipletDesign& design,
                               const power::TechParams& tech)
    : design_(design), tech_(tech), unit_(design.kind, tech.compute) {
  OPTIPLET_REQUIRE(design.units >= 1, "chiplet needs at least one MAC unit");
  OPTIPLET_REQUIRE(design.units_per_bus >= 1 &&
                       design.units_per_bus <= design.units,
                   "units per bus must be in [1, units]");
  build_bus_budget();
  const photonics::Photodetector pd(tech_.photonic.photodetector);
  // The PD integrates one symbol per dot product; its sensitivity is taken
  // at the symbol rate, plus the analog-precision penalty (multi-level
  // amplitudes need a cleaner eye than OOK).
  const double sensitivity_dbm =
      pd.sensitivity_dbm(tech_.compute.mac_symbol_rate_hz);
  laser_power_per_wavelength_w_ = bus_budget_.required_laser_power_w(
      sensitivity_dbm + tech_.compute.analog_precision_penalty_db,
      /*crosstalk_penalty_db=*/0.5, tech_.compute.compute_margin_db);
}

std::uint32_t ComputeChiplet::bus_count() const {
  return (design_.units + design_.units_per_bus - 1) / design_.units_per_bus;
}

double ComputeChiplet::sustained_macs_per_s() const {
  return static_cast<double>(design_.units) * unit_.peak_macs_per_s() *
         tech_.compute.mac_utilization;
}

double ComputeChiplet::compute_time_s(std::uint64_t macs) const {
  return static_cast<double>(macs) / sustained_macs_per_s();
}

void ComputeChiplet::build_bus_budget() {
  const auto& ct = tech_.compute;
  const double u = design_.units_per_bus;
  bus_budget_ = photonics::LinkBudget{};
  bus_budget_.add_loss("laser-to-chip coupler",
                       tech_.photonic.laser.coupling_loss_db);
  // Laser split across the chiplet's buses: a 1x2 splitter tree with per-
  // stage excess loss (the 1/N split itself is power conservation, not
  // loss: each bus gets its own per-wavelength requirement).
  const double split_stages =
      std::ceil(std::log2(std::max(1.0, static_cast<double>(bus_count()))));
  bus_budget_.add_loss("bus splitter tree excess",
                       split_stages * tech_.photonic.splitter_loss_db);
  bus_budget_.add_loss("input modulator bank",
                       ct.input_modulator_insertion_db);
  const double bus_length_m =
      design_.extra_path_m + u * ct.unit_bus_pitch_m;
  bus_budget_.add_loss("bus waveguide propagation",
                       bus_length_m * ct.chip_waveguide_loss_db_per_m);
  bus_budget_.add_loss("waveguide crossings",
                       static_cast<double>(design_.crossings) *
                           tech_.photonic.waveguide.crossing_loss_db);
  bus_budget_.add_loss("unit power taps excess",
                       u * ct.tap_excess_loss_db);
  bus_budget_.add_loss("broadcast split across units",
                       10.0 * std::log10(u));
  bus_budget_.add_loss("weight bank insertion",
                       ct.weight_bank_insertion_db);
}

double ComputeChiplet::laser_electrical_power_w() const {
  const double optical = laser_power_per_wavelength_w_ *
                         static_cast<double>(unit_.size()) *
                         static_cast<double>(bus_count());
  const auto& laser = tech_.photonic.laser;
  // The bus budget already charges the coupler loss, so `optical` is laser
  // output power; convert to wall-plug electrical with TEC overhead.
  return optical / laser.wall_plug_efficiency * laser.tec_overhead_factor;
}

double ComputeChiplet::ring_tuning_power_w() const {
  const auto& tuning = tech_.photonic.tuning;
  // Weight banks: S rings per unit. Input imprint banks: S rings per bus.
  const std::uint64_t rings =
      static_cast<std::uint64_t>(design_.units) * unit_.ring_count() +
      static_cast<std::uint64_t>(bus_count()) * unit_.size();
  const double trim_m = 0.4 * units::nm;  // process-variation hold
  const double thermal = std::max(0.0, trim_m - tuning.eo_range_m) /
                         tuning.to_efficiency_m_per_w;
  return static_cast<double>(rings) * (thermal + tuning.driver_static_w);
}

double ComputeChiplet::electronics_static_power_w() const {
  return static_cast<double>(design_.units) * unit_.static_power_w();
}

double ComputeChiplet::active_power_w() const {
  return laser_electrical_power_w() + ring_tuning_power_w() +
         electronics_static_power_w();
}

double ComputeChiplet::dynamic_energy_j(std::uint64_t macs) const {
  const double symbols =
      static_cast<double>(macs) / static_cast<double>(unit_.size());
  // Weight reuse: a conv kernel is held while the activation window slides;
  // charge one weight-DAC refresh per 64 symbols (output-tile reuse).
  const double per_symbol = unit_.energy_per_symbol_j(/*weight_reuse=*/64.0);
  // Activation DACs: S conversions per symbol per bus, shared by the
  // units_per_bus units -> amortized per unit.
  const double act_dac_per_symbol =
      static_cast<double>(unit_.size()) *
      tech_.compute.dac_energy_per_conversion_j /
      static_cast<double>(design_.units_per_bus);
  return symbols * (per_symbol + act_dac_per_symbol);
}

}  // namespace optiplet::accel
