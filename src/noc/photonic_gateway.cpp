#include "noc/photonic_gateway.hpp"

#include "util/require.hpp"

namespace optiplet::noc {

namespace {

photonics::MicroringGroupConfig make_mrg_config(
    const GatewayConfig& config, const power::PhotonicTech& tech,
    std::size_t modulator_rows, std::size_t filter_rows) {
  photonics::MicroringGroupConfig mrg;
  mrg.wavelengths_per_row = config.wavelength_count;
  mrg.modulator_rows = modulator_rows;
  mrg.filter_rows = filter_rows;
  mrg.ring_design = tech.ring;
  mrg.ring_tuning = tech.tuning;
  return mrg;
}

}  // namespace

PhotonicGateway::PhotonicGateway(const GatewayConfig& config,
                                 const power::PhotonicTech& tech,
                                 const photonics::WdmGrid& grid,
                                 std::size_t channel_offset,
                                 std::size_t modulator_rows,
                                 std::size_t filter_rows)
    : config_(config),
      tech_(tech),
      mrg_(make_mrg_config(config, tech, modulator_rows, filter_rows), grid,
           channel_offset),
      pd_(tech.photodetector),
      active_static_power_w_(mrg_.static_tuning_power_w() +
                             tech.gateway_static_w) {
  OPTIPLET_REQUIRE(config.wavelength_count >= 1,
                   "gateway needs at least one wavelength");
  OPTIPLET_REQUIRE(config.data_rate_per_wavelength_bps > 0.0,
                   "data rate must be positive");
  OPTIPLET_REQUIRE(config.clock_hz > 0.0, "clock must be positive");
  OPTIPLET_REQUIRE(
      pd_.supports_rate(config.data_rate_per_wavelength_bps),
      "photodetector bandwidth cannot sustain the per-wavelength rate");
}

double PhotonicGateway::bandwidth_bps() const {
  return static_cast<double>(config_.wavelength_count) *
         config_.data_rate_per_wavelength_bps;
}

double PhotonicGateway::store_forward_latency_s() const {
  // The electronic half accumulates a buffer chunk at the gateway clock
  // (paper: "buffers to store and forward data"), then launches it; E/O and
  // O/E conversions add a handful of cycles each.
  const double fill_s = static_cast<double>(config_.buffer_bits) /
                        (config_.clock_hz * 128.0);  // 128-bit datapath
  const double conversion_s = 8.0 / config_.clock_hz;  // 4 cycles each side
  return fill_s + conversion_s;
}

double PhotonicGateway::serialization_time_s(std::uint64_t bits) const {
  return static_cast<double>(bits) / bandwidth_bps();
}

double PhotonicGateway::transmit_energy_j(std::uint64_t bits) const {
  return mrg_.modulation_energy_j(bits) +
         static_cast<double>(bits) *
             (tech_.serializer_energy_per_bit_j +
              tech_.gateway_digital_energy_per_bit_j);
}

double PhotonicGateway::receive_energy_j(std::uint64_t bits) const {
  return pd_.receive_energy_j(bits) +
         static_cast<double>(bits) * tech_.gateway_digital_energy_per_bit_j;
}

}  // namespace optiplet::noc
