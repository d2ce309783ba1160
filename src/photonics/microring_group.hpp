#pragma once
/// \file microring_group.hpp
/// Microring Resonator Group (MRG) — the interposer-side half of a gateway
/// (Fig. 3, Fig. 6).
///
/// An MRG is a 2-D arrangement of rings on the interposer:
///   * one *modulator row* (one MR modulator per used wavelength) to write
///     data onto the gateway's waveguide, and
///   * zero or more *filter rows* (one MR filter per used wavelength per
///     row) to receive data from other gateways' waveguides.
///
/// Per the paper's protocol split: a compute chiplet's MRG has 1 filter row
/// (it only receives from memory, SWMR) and 1 modulator row (SWSR back to
/// memory); the memory chiplet's MRG has one filter row per compute gateway
/// and 1 modulator row (its broadcast). The MRG aggregates ring counts,
/// tuning power, modulation energy, and area for the power model.

#include <cstddef>
#include <cstdint>

#include "photonics/microring.hpp"
#include "photonics/wavelength.hpp"

namespace optiplet::photonics {

struct MicroringGroupConfig {
  std::size_t wavelengths_per_row = 16;
  std::size_t modulator_rows = 1;
  std::size_t filter_rows = 1;
  MicroringDesign ring_design{};
  MicroringTuning ring_tuning{};
  /// Footprint per ring including drivers/pads [m^2]; ~0.0012 mm^2.
  double area_per_ring_m2 = 1.2e-9;
};

/// Aggregated MR bank on the interposer under one gateway.
class MicroringGroup {
 public:
  /// Rings are tuned to the first `wavelengths_per_row` channels of `grid`
  /// offset by `channel_offset` (gateways on one chiplet use disjoint
  /// channel sub-bands).
  MicroringGroup(const MicroringGroupConfig& config, const WdmGrid& grid,
                 std::size_t channel_offset);

  [[nodiscard]] std::size_t ring_count() const;
  [[nodiscard]] std::size_t modulator_count() const;
  [[nodiscard]] std::size_t filter_count() const;
  [[nodiscard]] std::size_t wavelengths_per_row() const {
    return config_.wavelengths_per_row;
  }

  /// Static tuning power to hold every ring on its channel [W]. Scales with
  /// the ring count; the dominant MRG overhead in ReSiPI's power model.
  [[nodiscard]] double static_tuning_power_w() const {
    return static_tuning_power_w_;
  }

  /// Modulation energy for `bits` sent through the modulator row(s) [J].
  [[nodiscard]] double modulation_energy_j(std::uint64_t bits) const;

  /// Total interposer area of the MRG [m^2].
  [[nodiscard]] double area_m2() const;

  /// Worst-case through-loss a foreign wavelength suffers passing this MRG's
  /// rings on a shared waveguide [dB] (the off-resonance through loss of all
  /// rings in one row).
  [[nodiscard]] double through_loss_db() const;

  /// Drop loss experienced by the wavelength a filter ring extracts [dB].
  [[nodiscard]] double drop_loss_db() const;

  /// Representative ring, tuned to the group's first channel. Every ring
  /// shares its design and tuning and differs only in wavelength, so the
  /// group answers all its queries from this one ring and its row counts.
  [[nodiscard]] const MicroringResonator& reference_ring() const {
    return reference_ring_;
  }

  [[nodiscard]] const MicroringGroupConfig& config() const { return config_; }

 private:
  MicroringGroupConfig config_;
  MicroringResonator reference_ring_;
  double static_tuning_power_w_ = 0.0;
};

}  // namespace optiplet::photonics
