#pragma once
/// \file photonic_gateway.hpp
/// Photonic gateway model (paper §V, Fig. 5).
///
/// A gateway is the electrical/optical boundary of a chiplet: electronic
/// buffering + SerDes on the chiplet, microbumps down to a Microring
/// Resonator Group (MRG) on the interposer. A writer gateway modulates its
/// wavelength sub-band onto its waveguide; a reader gateway filters and
/// detects. The model answers: serialization bandwidth, store-and-forward
/// latency, and energy per transferred bit.

#include <cstdint>

#include "photonics/microring_group.hpp"
#include "photonics/photodetector.hpp"
#include "power/tech_params.hpp"
#include "util/units.hpp"

namespace optiplet::noc {

struct GatewayConfig {
  /// Wavelengths this gateway modulates/filters (its WDM sub-band).
  std::size_t wavelength_count = 16;
  /// Per-wavelength modulation rate [bit/s] — Table 1: 12 Gb/s.
  double data_rate_per_wavelength_bps = 12.0 * units::Gbps;
  /// Gateway digital clock [Hz] — Table 1: 2 GHz.
  double clock_hz = 2.0 * units::GHz;
  /// Store-and-forward buffer depth [bits] (sets the chunk the gateway
  /// accumulates before modulating; 2 KB typical).
  std::uint64_t buffer_bits = 16'384;
};

/// One gateway (electrical half + interposer MRG half).
class PhotonicGateway {
 public:
  PhotonicGateway(const GatewayConfig& config,
                  const power::PhotonicTech& tech,
                  const photonics::WdmGrid& grid, std::size_t channel_offset,
                  std::size_t modulator_rows, std::size_t filter_rows);

  /// Peak serialization bandwidth [bit/s] = wavelengths * rate.
  [[nodiscard]] double bandwidth_bps() const;

  /// Store-and-forward latency for one buffered chunk [s]: buffer fill at
  /// the digital clock + E/O + O/E conversion margins.
  [[nodiscard]] double store_forward_latency_s() const;

  /// Time to push `bits` through this gateway at full rate [s].
  [[nodiscard]] double serialization_time_s(std::uint64_t bits) const;

  /// Dynamic energy to transmit `bits` (serializer + modulators + gateway
  /// digital back-end) [J].
  [[nodiscard]] double transmit_energy_j(std::uint64_t bits) const;

  /// Dynamic energy to receive `bits` (PD/TIA + deserializer + digital) [J].
  [[nodiscard]] double receive_energy_j(std::uint64_t bits) const;

  /// Static power while the gateway is active [W]: MRG ring tuning + clock.
  [[nodiscard]] double active_static_power_w() const {
    return active_static_power_w_;
  }

  /// The interposer-side ring bank.
  [[nodiscard]] const photonics::MicroringGroup& mrg() const { return mrg_; }

  [[nodiscard]] const GatewayConfig& config() const { return config_; }

 private:
  GatewayConfig config_;
  power::PhotonicTech tech_;
  photonics::MicroringGroup mrg_;
  photonics::Photodetector pd_;
  double active_static_power_w_;
};

}  // namespace optiplet::noc
