#include "core/system_simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dnn/zoo.hpp"

namespace optiplet::core {
namespace {

using accel::Architecture;

TEST(SystemSimulator, ResultsAreInternallyConsistent) {
  const SystemSimulator sim(default_system_config());
  const auto r = sim.run(dnn::zoo::make_resnet50(), Architecture::kSiph2p5D);
  EXPECT_GT(r.latency_s, 0.0);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GT(r.traffic_bits, 0u);
  EXPECT_NEAR(r.average_power_w, r.energy_j / r.latency_s,
              1e-9 * r.average_power_w);
  EXPECT_NEAR(r.epb_j_per_bit,
              r.energy_j / static_cast<double>(r.traffic_bits),
              1e-12 * r.epb_j_per_bit);
}

TEST(SystemSimulator, LatencyIsSumOfLayerTimes) {
  const SystemSimulator sim(default_system_config());
  const auto r =
      sim.run(dnn::zoo::make_vgg16(), Architecture::kMonolithicCrossLight);
  double sum = 0.0;
  for (const auto& l : r.layers) {
    sum += l.total_s;
  }
  EXPECT_NEAR(r.latency_s, sum, 1e-6 * r.latency_s);
}

TEST(SystemSimulator, LayerCountMatchesWorkload) {
  const SystemSimulator sim(default_system_config());
  const auto model = dnn::zoo::make_resnet50();
  const auto r = sim.run(model, Architecture::kSiph2p5D);
  EXPECT_EQ(r.layers.size(), 54u);  // 53 conv + 1 fc
}

TEST(SystemSimulator, TrafficBitsIdenticalAcrossArchitectures) {
  // The EPB denominator must not depend on the architecture.
  const SystemSimulator sim(default_system_config());
  const auto model = dnn::zoo::make_densenet121();
  const auto mono =
      sim.run(model, Architecture::kMonolithicCrossLight).traffic_bits;
  EXPECT_EQ(sim.run(model, Architecture::kElec2p5D).traffic_bits, mono);
  EXPECT_EQ(sim.run(model, Architecture::kSiph2p5D).traffic_bits, mono);
}

TEST(SystemSimulator, DeterministicAcrossRuns) {
  const SystemSimulator sim(default_system_config());
  const auto model = dnn::zoo::make_mobilenetv2();
  const auto a = sim.run(model, Architecture::kSiph2p5D);
  const auto b = sim.run(model, Architecture::kSiph2p5D);
  EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.resipi_reconfigurations, b.resipi_reconfigurations);
}

TEST(SystemSimulator, PerLayerBreakdownIsComplete) {
  const SystemSimulator sim(default_system_config());
  const auto r = sim.run(dnn::zoo::make_vgg16(), Architecture::kSiph2p5D);
  for (const auto& l : r.layers) {
    EXPECT_GT(l.total_s, 0.0);
    EXPECT_GE(l.total_s,
              std::max(l.compute_s, std::max(l.read_s, l.write_s)) * 0.99);
    EXPECT_GE(l.gateways_per_chiplet, 1u);
    EXPECT_LE(l.gateways_per_chiplet, 4u);
  }
}

TEST(SystemSimulator, ElecLayersDoNotOverlapComms) {
  // The electrical model is store-and-forward per layer: total time is the
  // *sum* of compute and communication, not the max.
  const SystemSimulator sim(default_system_config());
  const auto r = sim.run(dnn::zoo::make_resnet50(), Architecture::kElec2p5D);
  for (const auto& l : r.layers) {
    EXPECT_GE(l.total_s,
              l.compute_s + l.read_s + l.write_s - 1e-12);
  }
}

TEST(SystemSimulator, LedgerCategoriesPresent) {
  const SystemSimulator sim(default_system_config());
  const auto siph = sim.run(dnn::zoo::make_resnet50(),
                            Architecture::kSiph2p5D);
  EXPECT_TRUE(siph.ledger.charged(power::Category::kComputeLaser));
  EXPECT_TRUE(siph.ledger.charged(power::Category::kNetworkStatic));
  EXPECT_TRUE(siph.ledger.charged(power::Category::kMemoryHbmAccess));
  const auto mono = sim.run(dnn::zoo::make_resnet50(),
                            Architecture::kMonolithicCrossLight);
  EXPECT_TRUE(mono.ledger.charged(power::Category::kComputeDieStatic));
  EXPECT_TRUE(mono.ledger.charged(power::Category::kMemoryDdrAccess));
}

TEST(SystemSimulator, MonolithicResidentModelSkipsDdr) {
  // LeNet5 fits the on-die buffer: no per-layer DDR streaming energy.
  const SystemSimulator sim(default_system_config());
  const auto lenet = sim.run(dnn::zoo::make_lenet5(),
                             Architecture::kMonolithicCrossLight);
  EXPECT_DOUBLE_EQ(
      lenet.ledger.entry(power::Category::kMemoryDdrAccess).dynamic_energy_j,
      0.0);
  const auto resnet = sim.run(dnn::zoo::make_resnet50(),
                              Architecture::kMonolithicCrossLight);
  EXPECT_GT(
      resnet.ledger.entry(power::Category::kMemoryDdrAccess).dynamic_energy_j,
      0.0);
}

TEST(SystemSimulator, MoreWavelengthsNeverSlower) {
  SystemConfig narrow = default_system_config();
  narrow.photonic.total_wavelengths = 16;
  SystemConfig wide = default_system_config();
  wide.photonic.total_wavelengths = 128;
  const auto model = dnn::zoo::make_vgg16();
  const auto r_narrow =
      SystemSimulator(narrow).run(model, Architecture::kSiph2p5D);
  const auto r_wide =
      SystemSimulator(wide).run(model, Architecture::kSiph2p5D);
  EXPECT_LE(r_wide.latency_s, r_narrow.latency_s * 1.001);
}

TEST(SystemSimulator, FasterSymbolRateCutsComputeTime) {
  SystemConfig slow = default_system_config();
  slow.tech.compute.mac_symbol_rate_hz = 1e9;
  SystemConfig fast = default_system_config();
  fast.tech.compute.mac_symbol_rate_hz = 8e9;
  const auto model = dnn::zoo::make_vgg16();  // compute-bound convs
  EXPECT_LT(
      SystemSimulator(fast).run(model, Architecture::kSiph2p5D).latency_s,
      SystemSimulator(slow).run(model, Architecture::kSiph2p5D).latency_s);
}

TEST(SystemSimulator, MonolithicBandwidthGatesLatency) {
  SystemConfig starved = default_system_config();
  starved.monolithic_memory_bandwidth_bps = 16e9;
  SystemConfig fed = default_system_config();
  fed.monolithic_memory_bandwidth_bps = 512e9;
  const auto model = dnn::zoo::make_resnet50();
  EXPECT_GT(SystemSimulator(starved)
                .run(model, Architecture::kMonolithicCrossLight)
                .latency_s,
            SystemSimulator(fed)
                .run(model, Architecture::kMonolithicCrossLight)
                .latency_s);
}

TEST(SystemSimulator, RejectsInvalidConfig) {
  SystemConfig bad = default_system_config();
  bad.parameter_bits = 0;
  EXPECT_THROW(SystemSimulator{bad}, std::invalid_argument);
  bad = default_system_config();
  bad.monolithic_memory_bandwidth_bps = 0.0;
  EXPECT_THROW(SystemSimulator{bad}, std::invalid_argument);
}

/// Property sweep: every (model, architecture) run satisfies basic sanity.
class RunMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(RunMatrix, SaneResults) {
  const auto& [model_name, arch_index] = GetParam();
  const SystemSimulator sim(default_system_config());
  const auto arch = static_cast<Architecture>(arch_index);
  const auto r = sim.run(dnn::zoo::by_name(model_name), arch);
  EXPECT_GT(r.latency_s, 1e-7);
  EXPECT_LT(r.latency_s, 1.0);            // nothing takes a second
  EXPECT_GT(r.average_power_w, 1.0);      // watts, not milliwatts
  EXPECT_LT(r.average_power_w, 200.0);    // and not kilowatts
  EXPECT_GT(r.epb_j_per_bit, 1e-14);
  EXPECT_LT(r.epb_j_per_bit, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, RunMatrix,
    ::testing::Combine(::testing::Values("LeNet5", "ResNet50", "DenseNet121",
                                         "VGG16", "MobileNetV2"),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace optiplet::core
