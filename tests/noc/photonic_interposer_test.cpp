#include "noc/photonic_interposer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "photonics/waveguide.hpp"
#include "util/math.hpp"
#include "util/units.hpp"

namespace optiplet::noc {
namespace {

using optiplet::units::Gbps;

PhotonicInterposer make_interposer() {
  return PhotonicInterposer(PhotonicInterposerConfig{},
                            power::PhotonicTech{});
}

TEST(Interposer, Table1Bandwidths) {
  const auto ip = make_interposer();
  EXPECT_EQ(ip.wavelengths_per_gateway(), 16u);
  EXPECT_NEAR(ip.gateway_bandwidth_bps(), 192e9, 1.0);
  EXPECT_NEAR(ip.swmr_bandwidth_bps(64), 768e9, 1.0);  // 64 x 12 Gb/s
  EXPECT_NEAR(ip.swsr_bandwidth_bps(4), 768e9, 1.0);
}

TEST(Interposer, BandwidthScalesWithActivation) {
  const auto ip = make_interposer();
  EXPECT_NEAR(ip.swmr_bandwidth_bps(32), 0.5 * ip.swmr_bandwidth_bps(64),
              1.0);
  EXPECT_NEAR(ip.swsr_bandwidth_bps(2), 2.0 * ip.swsr_bandwidth_bps(1),
              1.0);
}

TEST(Interposer, TotalComputeGateways) {
  const auto ip = make_interposer();
  EXPECT_EQ(ip.total_compute_gateways(), 32u);  // 8 chiplets x 4
}

TEST(Interposer, TimeOfFlightIsNanoseconds) {
  const auto ip = make_interposer();
  // 150 mm of SOI waveguide: ~2 ns of flight time.
  EXPECT_GT(ip.time_of_flight_s(), 0.5e-9);
  EXPECT_LT(ip.time_of_flight_s(), 5e-9);
}

TEST(Interposer, TransferLatencyDominatedBySerialization) {
  const auto ip = make_interposer();
  const std::uint64_t bits = 10'000'000;  // 10 Mb
  const double t = ip.transfer_latency_s(bits, 768e9);
  EXPECT_NEAR(t, bits / 768e9, 0.5e-6);
  EXPECT_GT(t, bits / 768e9);  // store-forward + ToF add on top
}

TEST(Interposer, SwmrBudgetCoversExpectedLossTerms) {
  const auto ip = make_interposer();
  const auto& budget = ip.swmr_budget();
  // The broadcast path must include the 8-way split and the MRG pass-bys.
  EXPECT_GE(budget.elements().size(), 5u);
  EXPECT_GT(budget.total_loss_db(), 10.0);
  EXPECT_LT(budget.total_loss_db(), 40.0);
}

TEST(Interposer, SwsrCheaperThanSwmr) {
  const auto ip = make_interposer();
  // The point-to-point write path has no broadcast split: less loss, less
  // laser power per wavelength.
  EXPECT_LT(ip.swsr_budget().total_loss_db(),
            ip.swmr_budget().total_loss_db());
  EXPECT_LT(ip.swsr_laser_power_per_wavelength_w(),
            ip.swmr_laser_power_per_wavelength_w());
}

TEST(Interposer, LaserPowerScalesWithActivation) {
  const auto ip = make_interposer();
  const double full = ip.laser_electrical_power_w(64, 32);
  const double half = ip.laser_electrical_power_w(32, 16);
  const double min = ip.laser_electrical_power_w(1, 8);
  EXPECT_GT(full, half);
  EXPECT_GT(half, min);
}

TEST(Interposer, NetworkStaticPowerScalesWithGateways) {
  const auto ip = make_interposer();
  const double full = ip.network_static_power_w(64, 32);
  const double min = ip.network_static_power_w(1, 8);
  EXPECT_GT(full, min);
  // The ReSiPI dynamic range must be large enough to matter (>2x).
  EXPECT_GT(full, 2.0 * min);
}

TEST(Interposer, NetworkPowerInPlausibleRange) {
  const auto ip = make_interposer();
  const double full = ip.network_static_power_w(64, 32);
  EXPECT_GT(full, 5.0);    // a real photonic NoC is watts, not milliwatts
  EXPECT_LT(full, 60.0);   // and not hundreds of watts
}

TEST(Interposer, TransferEnergyScalesWithBits) {
  const auto ip = make_interposer();
  EXPECT_NEAR(ip.transfer_energy_j(2'000'000),
              2.0 * ip.transfer_energy_j(1'000'000), 1e-15);
}

TEST(Interposer, MemoryGatewayHasFilterRowPerComputeGateway) {
  const auto ip = make_interposer();
  // Fig. 6: MRGm = 1 modulator row + one filter row per compute gateway.
  EXPECT_EQ(ip.memory_gateway().mrg().ring_count(),
            (1u + 32u) * 64u);
}

TEST(Interposer, RejectsUnevenWavelengthSplit) {
  PhotonicInterposerConfig cfg;
  cfg.total_wavelengths = 62;  // not divisible by 4 gateways
  EXPECT_THROW(PhotonicInterposer(cfg, power::PhotonicTech{}),
               std::invalid_argument);
}

TEST(Interposer, RejectsOverActivation) {
  const auto ip = make_interposer();
  EXPECT_THROW((void)ip.swmr_bandwidth_bps(65), std::invalid_argument);
  EXPECT_THROW((void)ip.swsr_bandwidth_bps(5), std::invalid_argument);
  EXPECT_THROW((void)ip.laser_electrical_power_w(64, 33),
               std::invalid_argument);
}

/// Hold power of `mrg` as a walk over its rings adds it, one term per ring.
double hold_power_w(const photonics::MicroringGroup& mrg) {
  const photonics::MicroringTuning& tuning = mrg.config().ring_tuning;
  double total = 0.0;
  for (std::size_t r = 0; r < mrg.ring_count(); ++r) {
    total += std::max(0.0, 0.4 * units::nm - tuning.eo_range_m) /
                 tuning.to_efficiency_m_per_w +
             tuning.driver_static_w;
  }
  return total;
}

// The interposer solves its lasers, coupling factor and time of flight
// once, at construction. Every power and latency query must still equal
// its formula evaluated from scratch, bit for bit.
TEST(Interposer, RunConstantsMatchTheirFormulasBitForBit) {
  PhotonicInterposerConfig pam4;
  pam4.modulation = photonics::ModulationFormat::kPam4;
  PhotonicInterposerConfig narrow;
  narrow.total_wavelengths = 16;
  PhotonicInterposerConfig small;
  small.compute_chiplets = 4;
  small.gateways_per_chiplet = 2;
  small.total_wavelengths = 32;
  const power::PhotonicTech tech{};
  for (const PhotonicInterposerConfig& cfg :
       {PhotonicInterposerConfig{}, pam4, narrow, small}) {
    const PhotonicInterposer ip(cfg, tech);
    const std::size_t channels = ip.grid().channel_count();
    const double sensitivity_dbm =
        photonics::Photodetector(tech.photodetector)
            .sensitivity_dbm(cfg.data_rate_per_wavelength_bps) +
        photonics::receiver_penalty_db(cfg.modulation);
    const double swmr_w = ip.swmr_budget().required_laser_power_w(
        sensitivity_dbm,
        photonics::LinkBudget::crosstalk_penalty_db(
            ip.compute_gateway().mrg().reference_ring(), ip.grid(),
            channels / 2, channels),
        tech.system_margin_db);
    const double swsr_w = ip.swsr_budget().required_laser_power_w(
        sensitivity_dbm,
        photonics::LinkBudget::crosstalk_penalty_db(
            ip.memory_gateway().mrg().reference_ring(), ip.grid(),
            channels / 2, ip.wavelengths_per_gateway()),
        tech.system_margin_db);
    EXPECT_EQ(ip.swmr_laser_power_per_wavelength_w(), swmr_w);
    EXPECT_EQ(ip.swsr_laser_power_per_wavelength_w(), swsr_w);
    const double memory_w =
        hold_power_w(ip.memory_gateway().mrg()) + tech.gateway_static_w;
    const double compute_w =
        hold_power_w(ip.compute_gateway().mrg()) + tech.gateway_static_w;

    const std::size_t lambdas = cfg.total_wavelengths;
    const std::size_t gateways = ip.total_compute_gateways();
    const std::pair<std::size_t, std::size_t> activations[] = {
        {0, 0},
        {1, 0},
        {0, 1},
        {1, gateways / 4},
        {lambdas / 2, gateways / 2},
        {lambdas, gateways - 1},
        {lambdas, gateways},
    };
    for (const auto& [lambda, active] : activations) {
      const double optical =
          static_cast<double>(lambda) * swmr_w +
          static_cast<double>(active) *
              static_cast<double>(ip.wavelengths_per_gateway()) * swsr_w;
      const double laser_w =
          optical * util::from_db(tech.laser.coupling_loss_db) /
              tech.laser.wall_plug_efficiency +
          (lambda + active > 0 ? tech.laser.bias_overhead_w : 0.0);
      EXPECT_EQ(ip.laser_electrical_power_w(lambda, active), laser_w)
          << lambda << " wavelengths, " << active << " gateways";
      EXPECT_EQ(ip.network_static_power_w(lambda, active),
                laser_w + (memory_w + static_cast<double>(active) * compute_w) +
                    tech.controller_static_w)
          << lambda << " wavelengths, " << active << " gateways";
    }

    const double flight_s =
        photonics::Waveguide(cfg.broadcast_path_factor * cfg.interposer_span_m,
                             0, 0, tech.waveguide)
            .time_of_flight_s();
    EXPECT_EQ(ip.time_of_flight_s(), flight_s);
    const std::pair<std::uint64_t, double> transfers[] = {
        {0, 1e9},
        {1, ip.gateway_bandwidth_bps()},
        {10'000'000, ip.swmr_bandwidth_bps(lambdas)},
        {123'456'789, ip.swsr_bandwidth_bps(1)},
    };
    for (const auto& [bits, bandwidth_bps] : transfers) {
      EXPECT_EQ(ip.transfer_latency_s(bits, bandwidth_bps),
                ip.compute_gateway().store_forward_latency_s() +
                    static_cast<double>(bits) / bandwidth_bps + flight_s)
          << bits << " bits";
    }
  }
}

TEST(Interposer, Table1DesignIsFeasible) {
  const auto ip = make_interposer();
  EXPECT_TRUE(ip.link_budget_feasible());
}

TEST(Interposer, WideRowsExceedFsrAndBecomeInfeasible) {
  // 128 wavelengths across 4 gateways = 32-channel rows spanning 25.6 nm,
  // beyond the ~13 nm ring FSR: rings alias onto foreign channels.
  PhotonicInterposerConfig cfg;
  cfg.total_wavelengths = 128;
  const PhotonicInterposer ip(cfg, power::PhotonicTech{});
  EXPECT_FALSE(ip.link_budget_feasible());
}

TEST(Interposer, WideGridFeasibleWithMoreGateways) {
  PhotonicInterposerConfig cfg;
  cfg.total_wavelengths = 128;
  cfg.gateways_per_chiplet = 8;  // 16-channel rows again
  const PhotonicInterposer ip(cfg, power::PhotonicTech{});
  EXPECT_TRUE(ip.link_budget_feasible());
}

/// Property: wavelength-count scaling (the §VII DSE axis) keeps per-gateway
/// bandwidth proportional.
class WavelengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WavelengthSweep, GatewayBandwidthProportional) {
  PhotonicInterposerConfig cfg;
  cfg.total_wavelengths = GetParam();
  const PhotonicInterposer ip(cfg, power::PhotonicTech{});
  EXPECT_NEAR(ip.gateway_bandwidth_bps(),
              static_cast<double>(GetParam()) / 4.0 * 12.0 * Gbps, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Counts, WavelengthSweep,
                         ::testing::Values(8, 16, 32, 64, 128));

}  // namespace
}  // namespace optiplet::noc
