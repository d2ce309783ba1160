#pragma once
/// \file photonic_interposer.hpp
/// The silicon-photonic interposer network (paper §V, Fig. 6).
///
/// Topology (passive, route-fixed):
///   * one SWMR broadcast waveguide: the memory chiplet's writer gateway
///     modulates all WDM channels; every compute chiplet's reader gateway
///     taps the waveguide and filter-drops the channels addressed to it;
///   * one SWSR waveguide per compute gateway back to the memory chiplet,
///     whose MRG holds one filter row per compute gateway (Fig. 6: MRGm).
///
/// The model sizes the laser from device-level link budgets (photonics::
/// LinkBudget over the actual waveguide geometry and MRG ring responses) and
/// answers bandwidth/latency/energy queries for the transaction-level system
/// simulator. Gateway activation is managed externally by ResipiController;
/// this class exposes power as a function of the active configuration.

#include <cstdint>
#include <vector>

#include "noc/photonic_gateway.hpp"
#include "noc/resipi_controller.hpp"
#include "photonics/link_budget.hpp"
#include "photonics/modulation.hpp"
#include "photonics/wavelength.hpp"
#include "power/energy_ledger.hpp"
#include "power/tech_params.hpp"

namespace optiplet::noc {

struct PhotonicInterposerConfig {
  std::size_t compute_chiplets = 8;
  std::size_t gateways_per_chiplet = 4;
  /// WDM channels system-wide (Table 1: 64). Divided evenly over a
  /// chiplet's gateways (DESIGN.md §9).
  std::size_t total_wavelengths = 64;
  /// Per-wavelength symbol rate (Table 1: 12 Gb/s at OOK = 12 GBd).
  double data_rate_per_wavelength_bps = 12.0 * units::Gbps;
  /// Line coding: OOK (paper default) or PAM-4 (paper §II option [44]),
  /// which doubles bits per wavelength at a ~6 dB receiver penalty and a
  /// second cascaded modulator ring per channel.
  photonics::ModulationFormat modulation = photonics::ModulationFormat::kOok;
  /// Gateway digital clock (Table 1: 2 GHz).
  double gateway_clock_hz = 2.0 * units::GHz;
  /// Interposer edge length [m]; chiplet sites are spread along the
  /// broadcast bus, so the worst-case waveguide path scales with this.
  double interposer_span_m = 40.0 * units::mm;
  /// Broadcast-bus length as a multiple of the span (the SWMR waveguide
  /// snakes past every compute chiplet's gateways).
  double broadcast_path_factor = 3.75;
  /// Waveguide crossings on the worst-case path (the broadcast bus crosses
  /// every gateway's SWSR return waveguide).
  std::size_t worst_case_crossings = 32;
};

/// Static + per-transfer characterization of the photonic interposer.
class PhotonicInterposer {
 public:
  PhotonicInterposer(const PhotonicInterposerConfig& config,
                     const power::PhotonicTech& tech);

  // ---- bandwidth ----

  /// Broadcast (memory->compute) bandwidth with `active_wavelengths` lit
  /// [bit/s]. The SWMR medium is shared by all read flows.
  [[nodiscard]] double swmr_bandwidth_bps(
      std::size_t active_wavelengths) const;

  /// Write (compute->memory) bandwidth of one chiplet with
  /// `active_gateways` of its gateways lit [bit/s].
  [[nodiscard]] double swsr_bandwidth_bps(std::size_t active_gateways) const;

  /// Wavelengths allotted to one gateway.
  [[nodiscard]] std::size_t wavelengths_per_gateway() const;

  /// Serialization bandwidth of a single gateway [bit/s].
  [[nodiscard]] double gateway_bandwidth_bps() const;

  // ---- timing ----

  /// End-to-end latency for a `bits`-sized transfer at `bandwidth_bps`
  /// [s]: gateway store-and-forward + serialization + time of flight.
  [[nodiscard]] double transfer_latency_s(std::uint64_t bits,
                                          double bandwidth_bps) const;

  /// Worst-case photon time of flight across the interposer [s].
  [[nodiscard]] double time_of_flight_s() const { return time_of_flight_s_; }

  // ---- link budgets / laser ----

  /// Link budget of the SWMR broadcast path to the farthest reader.
  [[nodiscard]] const photonics::LinkBudget& swmr_budget() const {
    return swmr_budget_;
  }

  /// Link budget of the longest SWSR write path.
  [[nodiscard]] const photonics::LinkBudget& swsr_budget() const {
    return swsr_budget_;
  }

  /// True when every link budget closes within a realizable per-channel
  /// laser power. Infeasible configurations arise when a gateway's MRG row
  /// spans more than the microring free spectral range (rows alias onto
  /// distant channels and the through-loss diverges) — the physical reason
  /// the Table-1 design splits 64 wavelengths into 16-channel sub-bands.
  [[nodiscard]] bool link_budget_feasible(double max_loss_db = 45.0) const;

  /// Required on-chip optical power per wavelength for the broadcast [W].
  [[nodiscard]] double swmr_laser_power_per_wavelength_w() const {
    return swmr_laser_power_per_wavelength_w_;
  }

  /// Required optical power per wavelength for one write path [W].
  [[nodiscard]] double swsr_laser_power_per_wavelength_w() const {
    return swsr_laser_power_per_wavelength_w_;
  }

  /// Electrical laser power with the given active configuration [W]:
  /// the memory broadcast keeps `active_broadcast_wavelengths` channels lit
  /// and each active compute gateway lights its write sub-band.
  [[nodiscard]] double laser_electrical_power_w(
      std::size_t active_broadcast_wavelengths,
      std::size_t total_active_compute_gateways) const;

  // ---- power / energy ----

  /// Static power of the interposer network for a configuration [W]:
  /// laser + active gateways (rings, clocks) + controller.
  [[nodiscard]] double network_static_power_w(
      std::size_t active_broadcast_wavelengths,
      std::size_t total_active_compute_gateways) const;

  /// Dynamic energy to move `bits` across one writer->reader hop [J]
  /// (transmit + receive sides).
  [[nodiscard]] double transfer_energy_j(std::uint64_t bits) const;

  /// A representative compute-chiplet gateway (1 modulator + 1 filter row).
  [[nodiscard]] const PhotonicGateway& compute_gateway() const {
    return compute_gateway_;
  }

  /// The memory chiplet gateway (1 modulator row + one filter row per
  /// compute gateway, Fig. 6).
  [[nodiscard]] const PhotonicGateway& memory_gateway() const {
    return memory_gateway_;
  }

  [[nodiscard]] std::size_t total_compute_gateways() const {
    return config_.compute_chiplets * config_.gateways_per_chiplet;
  }

  [[nodiscard]] const PhotonicInterposerConfig& config() const {
    return config_;
  }
  [[nodiscard]] const photonics::WdmGrid& grid() const { return grid_; }

 private:
  void build_budgets();
  void solve_lasers();

  PhotonicInterposerConfig config_;
  power::PhotonicTech tech_;
  photonics::WdmGrid grid_;
  PhotonicGateway compute_gateway_;
  PhotonicGateway memory_gateway_;
  photonics::LinkBudget swmr_budget_;
  photonics::LinkBudget swsr_budget_;
  double swmr_crosstalk_db_ = 0.0;
  double swsr_crosstalk_db_ = 0.0;
  // Run-invariant values the constructor computes once (solve_lasers()).
  double swmr_laser_power_per_wavelength_w_ = 0.0;
  double swsr_laser_power_per_wavelength_w_ = 0.0;
  double laser_coupling_factor_ = 0.0;
  double time_of_flight_s_ = 0.0;
};

}  // namespace optiplet::noc
