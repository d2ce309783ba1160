#include "noc/photonic_interposer.hpp"

#include <cmath>

#include "photonics/waveguide.hpp"
#include "util/math.hpp"
#include "util/require.hpp"

namespace optiplet::noc {

namespace {

GatewayConfig make_gateway_config(const PhotonicInterposerConfig& c) {
  GatewayConfig g;
  OPTIPLET_REQUIRE(c.gateways_per_chiplet >= 1, "need at least one gateway");
  OPTIPLET_REQUIRE(c.total_wavelengths % c.gateways_per_chiplet == 0,
                   "wavelengths must divide evenly across gateways");
  g.wavelength_count = c.total_wavelengths / c.gateways_per_chiplet;
  g.data_rate_per_wavelength_bps =
      photonics::line_rate_bps(c.modulation, c.data_rate_per_wavelength_bps);
  g.clock_hz = c.gateway_clock_hz;
  return g;
}

GatewayConfig make_memory_gateway_config(const PhotonicInterposerConfig& c) {
  GatewayConfig g;
  g.wavelength_count = c.total_wavelengths;  // broadcast row covers the grid
  g.data_rate_per_wavelength_bps =
      photonics::line_rate_bps(c.modulation, c.data_rate_per_wavelength_bps);
  g.clock_hz = c.gateway_clock_hz;
  return g;
}

}  // namespace

PhotonicInterposer::PhotonicInterposer(const PhotonicInterposerConfig& config,
                                       const power::PhotonicTech& tech)
    : config_(config),
      tech_(tech),
      grid_(photonics::make_cband_grid(config.total_wavelengths)),
      compute_gateway_(make_gateway_config(config), tech, grid_, 0,
                       photonics::modulator_rings_per_channel(
                           config.modulation),
                       /*filter_rows=*/1),
      memory_gateway_(make_memory_gateway_config(config), tech, grid_, 0,
                      photonics::modulator_rings_per_channel(
                          config.modulation),
                      /*filter_rows=*/config.compute_chiplets *
                          config.gateways_per_chiplet) {
  OPTIPLET_REQUIRE(config.compute_chiplets >= 1, "need compute chiplets");
  OPTIPLET_REQUIRE(config.total_wavelengths >= 1, "need wavelengths");
  OPTIPLET_REQUIRE(config.interposer_span_m > 0.0,
                   "interposer span must be positive");
  build_budgets();
  solve_lasers();
}

void PhotonicInterposer::build_budgets() {
  using photonics::Waveguide;

  // --- SWMR broadcast: memory modulator row -> farthest compute reader ---
  // The broadcast bus snakes past every compute chiplet; the farthest reader
  // sees the full span. Optical power is shared by all listening readers
  // (power-splitting taps), charged as 10*log10(N_readers).
  const Waveguide swmr_path(config_.broadcast_path_factor *
                                config_.interposer_span_m,
                            /*bends=*/config_.compute_chiplets * 2,
                            config_.worst_case_crossings, tech_.waveguide);
  swmr_budget_ = photonics::LinkBudget{};
  swmr_budget_.add_loss("laser-to-chip coupler", tech_.laser.coupling_loss_db);
  swmr_budget_.add_loss("modulator insertion",
                        memory_gateway_.mrg().drop_loss_db() * 0.5);
  swmr_budget_.add_loss("waveguide propagation",
                        swmr_path.insertion_loss_db());
  // Passing the MRGs of the other readers off-resonance.
  swmr_budget_.add_loss(
      "through intermediate MRGs",
      compute_gateway_.mrg().through_loss_db() *
          static_cast<double>(config_.compute_chiplets - 1));
  swmr_budget_.add_loss(
      "broadcast power split",
      10.0 * std::log10(static_cast<double>(config_.compute_chiplets)));
  swmr_budget_.add_loss("reader filter drop",
                        compute_gateway_.mrg().drop_loss_db());

  swmr_crosstalk_db_ = photonics::LinkBudget::crosstalk_penalty_db(
      compute_gateway_.mrg().reference_ring(), grid_,
      /*reader_channel=*/grid_.channel_count() / 2,
      /*active_channels=*/grid_.channel_count());

  // --- SWSR write: compute modulator row -> memory filter row ---
  const Waveguide swsr_path(config_.interposer_span_m,
                            /*bends=*/4, config_.worst_case_crossings / 2,
                            tech_.waveguide);
  swsr_budget_ = photonics::LinkBudget{};
  swsr_budget_.add_loss("laser-to-chip coupler", tech_.laser.coupling_loss_db);
  swsr_budget_.add_loss("PCMC gateway feed",
                        tech_.pcm.insertion_loss_crystalline_db);
  swsr_budget_.add_loss("modulator insertion",
                        compute_gateway_.mrg().drop_loss_db() * 0.5);
  swsr_budget_.add_loss("waveguide propagation",
                        swsr_path.insertion_loss_db());
  swsr_budget_.add_loss("memory filter drop",
                        memory_gateway_.mrg().drop_loss_db());

  swsr_crosstalk_db_ = photonics::LinkBudget::crosstalk_penalty_db(
      memory_gateway_.mrg().reference_ring(), grid_,
      grid_.channel_count() / 2, wavelengths_per_gateway());
}

void PhotonicInterposer::solve_lasers() {
  // PD noise scales with the symbol rate; multi-level formats then add
  // their eye-closure penalty on top.
  const double sensitivity_dbm =
      photonics::Photodetector(tech_.photodetector)
          .sensitivity_dbm(config_.data_rate_per_wavelength_bps) +
      photonics::receiver_penalty_db(config_.modulation);
  swmr_laser_power_per_wavelength_w_ = swmr_budget_.required_laser_power_w(
      sensitivity_dbm, swmr_crosstalk_db_, tech_.system_margin_db);
  swsr_laser_power_per_wavelength_w_ = swsr_budget_.required_laser_power_w(
      sensitivity_dbm, swsr_crosstalk_db_, tech_.system_margin_db);
  laser_coupling_factor_ = util::from_db(tech_.laser.coupling_loss_db);
  time_of_flight_s_ =
      photonics::Waveguide(
          config_.broadcast_path_factor * config_.interposer_span_m, 0, 0,
          tech_.waveguide)
          .time_of_flight_s();
}

std::size_t PhotonicInterposer::wavelengths_per_gateway() const {
  return config_.total_wavelengths / config_.gateways_per_chiplet;
}

double PhotonicInterposer::gateway_bandwidth_bps() const {
  return static_cast<double>(wavelengths_per_gateway()) *
         photonics::line_rate_bps(config_.modulation,
                                  config_.data_rate_per_wavelength_bps);
}

double PhotonicInterposer::swmr_bandwidth_bps(
    std::size_t active_wavelengths) const {
  OPTIPLET_REQUIRE(active_wavelengths <= config_.total_wavelengths,
                   "more active wavelengths than the grid has");
  return static_cast<double>(active_wavelengths) *
         photonics::line_rate_bps(config_.modulation,
                                  config_.data_rate_per_wavelength_bps);
}

double PhotonicInterposer::swsr_bandwidth_bps(
    std::size_t active_gateways) const {
  OPTIPLET_REQUIRE(active_gateways <= config_.gateways_per_chiplet,
                   "more active gateways than the chiplet has");
  return static_cast<double>(active_gateways) * gateway_bandwidth_bps();
}

double PhotonicInterposer::transfer_latency_s(std::uint64_t bits,
                                              double bandwidth_bps) const {
  OPTIPLET_REQUIRE(bandwidth_bps > 0.0, "bandwidth must be positive");
  return compute_gateway_.store_forward_latency_s() +
         static_cast<double>(bits) / bandwidth_bps + time_of_flight_s_;
}

bool PhotonicInterposer::link_budget_feasible(double max_loss_db) const {
  // Spectral fit: a gateway row must sit inside one ring FSR, with one
  // guard channel, or its rings alias onto foreign channels.
  const auto& ring = compute_gateway_.mrg().reference_ring();
  const double row_span =
      static_cast<double>(wavelengths_per_gateway()) *
      grid_.channel_spacing_m();
  if (row_span >= ring.fsr_m()) {
    return false;
  }
  return swmr_budget_.total_loss_db() + swmr_crosstalk_db_ <= max_loss_db &&
         swsr_budget_.total_loss_db() + swsr_crosstalk_db_ <= max_loss_db;
}

double PhotonicInterposer::laser_electrical_power_w(
    std::size_t active_broadcast_wavelengths,
    std::size_t total_active_compute_gateways) const {
  OPTIPLET_REQUIRE(
      total_active_compute_gateways <= total_compute_gateways(),
      "more active gateways than the platform has");
  const double optical =
      static_cast<double>(active_broadcast_wavelengths) *
          swmr_laser_power_per_wavelength_w_ +
      static_cast<double>(total_active_compute_gateways) *
          static_cast<double>(wavelengths_per_gateway()) *
          swsr_laser_power_per_wavelength_w_;
  const double bias = (active_broadcast_wavelengths +
                       total_active_compute_gateways) > 0
                          ? tech_.laser.bias_overhead_w
                          : 0.0;
  return optical * laser_coupling_factor_ / tech_.laser.wall_plug_efficiency +
         bias;
}

double PhotonicInterposer::network_static_power_w(
    std::size_t active_broadcast_wavelengths,
    std::size_t total_active_compute_gateways) const {
  const double laser = laser_electrical_power_w(
      active_broadcast_wavelengths, total_active_compute_gateways);
  // The memory gateway is always on (it serves every read); compute
  // gateways contribute only when active. Parked gateways are dark: their
  // PCMC feed is non-volatile and their rings are detuned (no hold power).
  const double gateways =
      memory_gateway_.active_static_power_w() +
      static_cast<double>(total_active_compute_gateways) *
          compute_gateway_.active_static_power_w();
  return laser + gateways + tech_.controller_static_w;
}

double PhotonicInterposer::transfer_energy_j(std::uint64_t bits) const {
  return compute_gateway_.transmit_energy_j(bits) +
         compute_gateway_.receive_energy_j(bits);
}

}  // namespace optiplet::noc
