#include "engine/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace optiplet::engine {
namespace {

ScenarioSpec lenet_spec() {
  ScenarioSpec spec;
  spec.model = "LeNet5";
  return spec;
}

TEST(ScenarioSpec, KeyIsCanonicalUnderOverrideOrder) {
  ScenarioSpec a = lenet_spec();
  a.overrides = {{"resipi.epoch_s", 5e-6}, {"idle_power_fraction", 0.05}};
  ScenarioSpec b = lenet_spec();
  b.overrides = {{"idle_power_fraction", 0.05}, {"resipi.epoch_s", 5e-6}};
  EXPECT_EQ(a.key(), b.key());
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ScenarioSpec, KeyDistinguishesEveryField) {
  const ScenarioSpec base = lenet_spec();
  ScenarioSpec other = base;
  other.model = "VGG16";
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.arch = accel::Architecture::kElec2p5D;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.batch_size = 4;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.wavelengths = 32;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.gateways_per_chiplet = 2;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.modulation = photonics::ModulationFormat::kPam4;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.fidelity = core::Fidelity::kCycleAccurate;
  EXPECT_NE(base.key(), other.key());
  other = base;
  other.overrides = {{"resipi.epoch_s", 5e-6}};
  EXPECT_NE(base.key(), other.key());
}

TEST(ScenarioSpec, KeyTracksEffectiveValueOfDuplicateOverrideKeys) {
  // apply() is last-write-wins, so specs listing the same override key
  // twice in different orders are different configurations and must not
  // share a cache key.
  ScenarioSpec a = lenet_spec();
  a.overrides = {{"resipi.epoch_s", 1e-5}, {"resipi.epoch_s", 2e-5}};
  ScenarioSpec b = lenet_spec();
  b.overrides = {{"resipi.epoch_s", 2e-5}, {"resipi.epoch_s", 1e-5}};
  EXPECT_NE(a.key(), b.key());
  // ...and the duplicate collapses to the same key as its effective form.
  ScenarioSpec c = lenet_spec();
  c.overrides = {{"resipi.epoch_s", 2e-5}};
  EXPECT_EQ(a.key(), c.key());
}

TEST(ScenarioSpec, ApplyImprintsConfig) {
  ScenarioSpec spec = lenet_spec();
  spec.batch_size = 4;
  spec.wavelengths = 32;
  spec.gateways_per_chiplet = 2;
  spec.modulation = photonics::ModulationFormat::kPam4;
  spec.fidelity = core::Fidelity::kCycleAccurate;
  spec.overrides = {{"resipi.epoch_s", 5e-6}};
  core::SystemConfig cfg = core::default_system_config();
  spec.apply(cfg);
  EXPECT_EQ(cfg.batch_size, 4u);
  EXPECT_EQ(cfg.photonic.total_wavelengths, 32u);
  EXPECT_EQ(cfg.photonic.gateways_per_chiplet, 2u);
  EXPECT_EQ(cfg.photonic.modulation, photonics::ModulationFormat::kPam4);
  EXPECT_EQ(cfg.fidelity, core::Fidelity::kCycleAccurate);
  EXPECT_DOUBLE_EQ(cfg.resipi.epoch_s, 5e-6);
}

TEST(ScenarioSpec, ApplyThrowsOnUnknownOverride) {
  ScenarioSpec spec = lenet_spec();
  spec.overrides = {{"no.such.knob", 1.0}};
  core::SystemConfig cfg = core::default_system_config();
  EXPECT_THROW(spec.apply(cfg), std::invalid_argument);
}

TEST(Overrides, RegistryIsSortedAndRoundTrips) {
  const auto keys = override_keys();
  ASSERT_FALSE(keys.empty());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  core::SystemConfig cfg = core::default_system_config();
  for (const auto& key : keys) {
    EXPECT_TRUE(apply_override(cfg, key, 1.0)) << key;
  }
  EXPECT_FALSE(apply_override(cfg, "no.such.knob", 1.0));
}

TEST(Feasibility, RequiresGatewayDivisibility) {
  ScenarioSpec spec = lenet_spec();
  const auto base = core::default_system_config();
  spec.wavelengths = 64;
  spec.gateways_per_chiplet = 3;
  EXPECT_FALSE(feasible(spec, base));
  spec.gateways_per_chiplet = 0;
  EXPECT_FALSE(feasible(spec, base));
  spec.gateways_per_chiplet = 4;
  EXPECT_TRUE(feasible(spec, base));
}

TEST(Feasibility, LinkBudgetOnlyGatesSiph) {
  // 128 wavelengths over 4 gateways: 32-channel MRG rows exceed the ring
  // FSR, so the SiPh link budget cannot close.
  ScenarioSpec spec = lenet_spec();
  spec.wavelengths = 128;
  spec.gateways_per_chiplet = 4;
  const auto base = core::default_system_config();
  spec.arch = accel::Architecture::kSiph2p5D;
  EXPECT_FALSE(feasible(spec, base));
  spec.arch = accel::Architecture::kElec2p5D;
  EXPECT_TRUE(feasible(spec, base));
}

TEST(ScenarioGrid, EmptyAxesResolveToBaseDefaults) {
  ScenarioGrid grid;
  grid.models = {"LeNet5"};
  const auto base = core::default_system_config();
  const auto specs = grid.expand(base);
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].model, "LeNet5");
  EXPECT_EQ(specs[0].arch, accel::Architecture::kSiph2p5D);
  EXPECT_EQ(specs[0].batch_size, base.batch_size);
  EXPECT_EQ(specs[0].wavelengths, base.photonic.total_wavelengths);
  EXPECT_EQ(specs[0].gateways_per_chiplet,
            base.photonic.gateways_per_chiplet);
  EXPECT_EQ(specs[0].modulation, base.photonic.modulation);
}

TEST(ScenarioGrid, EmptyModelAxisMeansAllFive) {
  ScenarioGrid grid;
  const auto specs = grid.expand(core::default_system_config());
  EXPECT_EQ(specs.size(), 5u);
}

TEST(ScenarioGrid, ExpansionIsArchitectureMajorModelMinor) {
  ScenarioGrid grid;
  grid.models = {"LeNet5", "VGG16"};
  grid.architectures = {accel::Architecture::kMonolithicCrossLight,
                        accel::Architecture::kSiph2p5D};
  const auto specs = grid.expand(core::default_system_config());
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].arch, accel::Architecture::kMonolithicCrossLight);
  EXPECT_EQ(specs[0].model, "LeNet5");
  EXPECT_EQ(specs[1].arch, accel::Architecture::kMonolithicCrossLight);
  EXPECT_EQ(specs[1].model, "VGG16");
  EXPECT_EQ(specs[2].arch, accel::Architecture::kSiph2p5D);
  EXPECT_EQ(specs[2].model, "LeNet5");
  EXPECT_EQ(specs[3].arch, accel::Architecture::kSiph2p5D);
  EXPECT_EQ(specs[3].model, "VGG16");
}

TEST(ScenarioGrid, FiltersInfeasibleShapes) {
  ScenarioGrid grid;
  grid.models = {"LeNet5"};
  grid.wavelengths = {64, 128};
  grid.gateways_per_chiplet = {4};
  EXPECT_EQ(grid.raw_size(), 2u);
  const auto specs = grid.expand(core::default_system_config());
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].wavelengths, 64u);
}

TEST(ScenarioGrid, OverrideAxesAreCartesian) {
  ScenarioGrid grid;
  grid.models = {"LeNet5"};
  grid.batch_sizes = {1, 2};
  grid.override_axes = {{"resipi.epoch_s", {5e-6, 1e-5, 2e-5}}};
  EXPECT_EQ(grid.raw_size(), 6u);
  const auto specs = grid.expand(core::default_system_config());
  ASSERT_EQ(specs.size(), 6u);
  // Batch is outer, override axis inner.
  EXPECT_EQ(specs[0].batch_size, 1u);
  EXPECT_DOUBLE_EQ(specs[0].overrides[0].second, 5e-6);
  EXPECT_DOUBLE_EQ(specs[2].overrides[0].second, 2e-5);
  EXPECT_EQ(specs[3].batch_size, 2u);
}

TEST(ScenarioGrid, RejectsUnknownOverrideKeyAndModel) {
  ScenarioGrid bad_key;
  bad_key.models = {"LeNet5"};
  bad_key.override_axes = {{"no.such.knob", {1.0}}};
  EXPECT_THROW(bad_key.expand(core::default_system_config()),
               std::invalid_argument);
  ScenarioGrid bad_model;
  bad_model.models = {"AlexNet"};
  EXPECT_THROW(bad_model.expand(core::default_system_config()),
               std::invalid_argument);
}

TEST(ScenarioGrid, RejectsDuplicateOverrideAxes) {
  ScenarioGrid grid;
  grid.models = {"LeNet5"};
  grid.override_axes = {{"resipi.epoch_s", {5e-6}},
                        {"resipi.epoch_s", {1e-5}}};
  EXPECT_THROW(grid.expand(core::default_system_config()),
               std::invalid_argument);
}

TEST(ParseHelpers, ArchitectureAndModulationAliases) {
  using accel::Architecture;
  using photonics::ModulationFormat;
  EXPECT_EQ(util::parse_name<Architecture>("mono"),
            Architecture::kMonolithicCrossLight);
  EXPECT_EQ(util::parse_name<Architecture>("crosslight"),
            Architecture::kMonolithicCrossLight);
  EXPECT_EQ(util::parse_name<Architecture>("CrossLight"),
            Architecture::kMonolithicCrossLight);
  EXPECT_EQ(util::parse_name<Architecture>("elec"), Architecture::kElec2p5D);
  EXPECT_EQ(util::parse_name<Architecture>("2.5D-CrossLight-Elec"),
            Architecture::kElec2p5D);
  EXPECT_EQ(util::parse_name<Architecture>("siph"), Architecture::kSiph2p5D);
  EXPECT_EQ(util::parse_name<Architecture>("2.5D-CrossLight-SiPh"),
            Architecture::kSiph2p5D);
  EXPECT_FALSE(util::parse_name<Architecture>("tpu").has_value());
  EXPECT_FALSE(util::parse_name<Architecture>("").has_value());
  EXPECT_EQ(util::choices<Architecture>(), "mono, elec, siph");
  EXPECT_EQ(util::parse_name<ModulationFormat>("ook"), ModulationFormat::kOok);
  EXPECT_EQ(util::parse_name<ModulationFormat>("OOK"), ModulationFormat::kOok);
  EXPECT_EQ(util::parse_name<ModulationFormat>("pam4"),
            ModulationFormat::kPam4);
  EXPECT_EQ(util::parse_name<ModulationFormat>("PAM-4"),
            ModulationFormat::kPam4);
  EXPECT_EQ(util::parse_name<ModulationFormat>("PAM4"),
            ModulationFormat::kPam4);
  EXPECT_FALSE(util::parse_name<ModulationFormat>("qam64").has_value());
  EXPECT_FALSE(util::parse_name<ModulationFormat>("").has_value());
  EXPECT_EQ(util::choices<ModulationFormat>(), "ook, pam4");
}

}  // namespace
}  // namespace optiplet::engine
