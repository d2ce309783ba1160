#include "core/fidelity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "../../tools/cli_support.hpp"
#include "cluster/cluster_spec.hpp"
#include "engine/scenario.hpp"
#include "serve/serving_spec.hpp"
#include "serve/tracegen.hpp"

namespace optiplet::core {
namespace {

TEST(FidelitySpec, EveryModeRoundTripsThroughItsCanonicalSpelling) {
  for (const Fidelity mode : {Fidelity::kAnalytical, Fidelity::kCycleAccurate,
                              Fidelity::kSampled}) {
    const FidelitySpec spec(mode);
    const auto parsed = fidelity_from_string(to_string(spec));
    ASSERT_TRUE(parsed.has_value()) << to_string(spec);
    EXPECT_EQ(*parsed, spec) << to_string(spec);
  }
}

TEST(FidelitySpec, PureModesSpellExactlyTheBareEnum) {
  // ScenarioSpec keys and CSV rows for the pre-FidelitySpec modes must be
  // byte-identical to the old enum encoding.
  EXPECT_EQ(to_string(FidelitySpec(Fidelity::kAnalytical)), "analytical");
  EXPECT_EQ(to_string(FidelitySpec(Fidelity::kCycleAccurate)), "cycle");
  EXPECT_STREQ(to_string(Fidelity::kAnalytical), "analytical");
  EXPECT_STREQ(to_string(Fidelity::kCycleAccurate), "cycle");
}

TEST(FidelitySpec, SampledRoundTripsWithEveryKnobSet) {
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 12;
  spec.window_layers = 3;
  spec.seed = 987654321;
  spec.confidence = 0.99;
  const std::string text = to_string(spec);
  EXPECT_EQ(text, "sampled:windows=12,layers=3,seed=987654321,conf=0.99");
  const auto parsed = fidelity_from_string(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
}

TEST(FidelitySpec, LegacyAliasesParse) {
  ASSERT_TRUE(fidelity_from_string("tlm").has_value());
  EXPECT_EQ(fidelity_from_string("tlm")->mode, Fidelity::kAnalytical);
  ASSERT_TRUE(fidelity_from_string("cycle-accurate").has_value());
  EXPECT_EQ(fidelity_from_string("cycle-accurate")->mode,
            Fidelity::kCycleAccurate);
}

TEST(FidelitySpec, ShortKnobSpellingsParse) {
  const auto spec = fidelity_from_string("sampled:w=4,l=2,s=7,conf=0.9");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->windows, 4u);
  EXPECT_EQ(spec->window_layers, 2u);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->confidence, 0.9);
  // Unset knobs keep their defaults.
  const auto partial = fidelity_from_string("sampled:seed=5");
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->windows, FidelitySpec().windows);
  EXPECT_EQ(partial->seed, 5u);
}

TEST(FidelitySpec, RejectsMalformedSpellings) {
  EXPECT_FALSE(fidelity_from_string("").has_value());
  EXPECT_FALSE(fidelity_from_string("quantum").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:windows").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:bogus=1").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:layers=0").has_value());
  EXPECT_FALSE(fidelity_from_string("sampled:conf=1.5").has_value());
  // Knobs only exist on the sampled mode.
  EXPECT_FALSE(fidelity_from_string("analytical:windows=4").has_value());
  EXPECT_FALSE(fidelity_from_string("cycle:seed=1").has_value());
}

TEST(FidelitySpec, KnobsOnlyParticipateInIdentityUnderSampled) {
  FidelitySpec a(Fidelity::kCycleAccurate);
  FidelitySpec b(Fidelity::kCycleAccurate);
  b.seed = 99;
  EXPECT_EQ(a, b);
  a.mode = b.mode = Fidelity::kSampled;
  EXPECT_NE(a, b);
}

TEST(SplitFidelityList, FoldsKnobTokensOntoTheSampledEntry) {
  const auto parts =
      split_fidelity_list("analytical,sampled:windows=4,seed=7,cycle");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "analytical");
  EXPECT_EQ(parts[1], "sampled:windows=4,seed=7");
  EXPECT_EQ(parts[2], "cycle");
  // A bare "sampled" grows its knob list with ':' on the first knob.
  const auto bare = split_fidelity_list("sampled,w=2,l=1");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0], "sampled:w=2,l=1");
}

TEST(SampledLayerMask, DeterministicAndStratified) {
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 8;
  spec.window_layers = 2;
  spec.seed = 3;
  const std::size_t layers = 120;
  const auto a = sampled_layer_mask(layers, spec, /*salt=*/1);
  const auto b = sampled_layer_mask(layers, spec, /*salt=*/1);
  EXPECT_EQ(a, b);
  // One window per equal stratum: each eighth of the range holds sampled
  // layers, so no window count is lost to collisions.
  std::size_t sampled = 0;
  for (std::size_t w = 0; w < spec.windows; ++w) {
    bool stratum_hit = false;
    for (std::size_t k = w * layers / spec.windows;
         k < (w + 2) * layers / spec.windows && k < layers; ++k) {
      stratum_hit |= a[k];
    }
    EXPECT_TRUE(stratum_hit) << "stratum " << w;
  }
  for (const bool hit : a) {
    sampled += hit ? 1 : 0;
  }
  EXPECT_GE(sampled, spec.windows);
  EXPECT_LE(sampled, spec.windows * spec.window_layers);
}

TEST(SampledLayerMask, SaltAndSeedChangeThePlan) {
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 6;
  spec.seed = 1;
  const auto base = sampled_layer_mask(200, spec, 1);
  EXPECT_NE(base, sampled_layer_mask(200, spec, 2));
  spec.seed = 2;
  EXPECT_NE(base, sampled_layer_mask(200, spec, 1));
}

TEST(SampledLayerMask, DegeneratesAtTheEndpoints) {
  FidelitySpec spec(Fidelity::kSampled);
  spec.windows = 0;
  const auto none = sampled_layer_mask(50, spec, 1);
  EXPECT_EQ(std::count(none.begin(), none.end(), true), 0);
  spec.windows = 50;
  const auto all = sampled_layer_mask(50, spec, 1);
  EXPECT_EQ(std::count(all.begin(), all.end(), true), 50);
  // Non-sampled modes never sample.
  const auto off = sampled_layer_mask(50, Fidelity::kCycleAccurate, 1);
  EXPECT_EQ(std::count(off.begin(), off.end(), true), 0);
}

// Every enum the CLIs parse must keep its names: the CSV/CLI encodings
// are load-bearing interfaces, not display strings. Each pin below is
// written out by hand, never read from the table it checks.

template <typename Enum>
void expect_round_trip(
    std::initializer_list<std::pair<Enum, std::string_view>> modes) {
  for (const auto& [mode, name] : modes) {
    EXPECT_EQ(to_string(mode), name);
    const auto parsed = util::parse_name<Enum>(to_string(mode));
    ASSERT_TRUE(parsed.has_value()) << to_string(mode);
    EXPECT_EQ(*parsed, mode) << to_string(mode);
  }
}

/// Every accepted spelling maps to its value and the table accepts no
/// other; unknown and empty text are refused; `valid` is the error
/// messages' choice list.
template <typename Enum>
void expect_spellings(
    std::initializer_list<std::pair<std::string_view, Enum>> accepted,
    const std::string& valid) {
  std::size_t spellings = 0;
  for (const auto& row : names(Enum{})) {
    for (const char* spelling : row.spellings) {
      spellings += spelling != nullptr ? 1 : 0;
    }
  }
  EXPECT_EQ(spellings, accepted.size()) << valid;
  for (const auto& [text, value] : accepted) {
    EXPECT_EQ(util::parse_name<Enum>(text), value) << text;
  }
  EXPECT_FALSE(util::parse_name<Enum>("bogus").has_value()) << valid;
  EXPECT_FALSE(util::parse_name<Enum>("").has_value()) << valid;
  EXPECT_EQ(util::choices<Enum>(), valid);
}

// The table lookups stay usable in constant expressions.
static_assert(std::string_view(to_string(Fidelity::kSampled)) == "sampled");
static_assert(util::parse_name<Fidelity>("tlm") == Fidelity::kAnalytical);

TEST(StringEncodings, EveryEnumRoundTrips) {
  using accel::Architecture;
  using cli::LogLevel;
  using cluster::BalancerPolicy;
  using photonics::ModulationFormat;
  using serve::AdmissionPolicy;
  using serve::ArrivalSource;
  using serve::BatchPolicy;
  using serve::PipelineMode;
  using serve::TraceProfile;
  expect_round_trip<BatchPolicy>({{BatchPolicy::kNone, "none"},
                                  {BatchPolicy::kFixedSize, "size"},
                                  {BatchPolicy::kDeadline, "deadline"},
                                  {BatchPolicy::kContinuous, "cont"}});
  expect_spellings<BatchPolicy>({{"none", BatchPolicy::kNone},
                                 {"fifo", BatchPolicy::kNone},
                                 {"no-batch", BatchPolicy::kNone},
                                 {"size", BatchPolicy::kFixedSize},
                                 {"fixed", BatchPolicy::kFixedSize},
                                 {"fixed-size", BatchPolicy::kFixedSize},
                                 {"deadline", BatchPolicy::kDeadline},
                                 {"dynamic", BatchPolicy::kDeadline},
                                 {"cont", BatchPolicy::kContinuous},
                                 {"continuous", BatchPolicy::kContinuous}},
                                "none, size, deadline, cont");
  expect_round_trip<PipelineMode>({{PipelineMode::kBatchGranular, "batch"},
                                   {PipelineMode::kLayerGranular, "layer"}});
  expect_spellings<PipelineMode>(
      {{"batch", PipelineMode::kBatchGranular},
       {"blocked", PipelineMode::kBatchGranular},
       {"layer", PipelineMode::kLayerGranular},
       {"pipelined", PipelineMode::kLayerGranular}},
      "batch, layer");
  expect_round_trip<ArrivalSource>({{ArrivalSource::kOpenLoop, "open"},
                                    {ArrivalSource::kClosedLoop, "closed"}});
  expect_spellings<ArrivalSource>({{"open", ArrivalSource::kOpenLoop},
                                   {"poisson", ArrivalSource::kOpenLoop},
                                   {"closed", ArrivalSource::kClosedLoop},
                                   {"closed-loop", ArrivalSource::kClosedLoop}},
                                  "open, closed");
  expect_round_trip<AdmissionPolicy>({{AdmissionPolicy::kAdmitAll, "all"},
                                      {AdmissionPolicy::kSlaShed, "shed"}});
  expect_spellings<AdmissionPolicy>(
      {{"all", AdmissionPolicy::kAdmitAll},
       {"none", AdmissionPolicy::kAdmitAll},
       {"admit-all", AdmissionPolicy::kAdmitAll},
       {"shed", AdmissionPolicy::kSlaShed},
       {"sla-shed", AdmissionPolicy::kSlaShed}},
      "all, shed");
  expect_round_trip<TraceProfile>({{TraceProfile::kDiurnal, "diurnal"},
                                   {TraceProfile::kBursts, "bursts"},
                                   {TraceProfile::kMmpp, "mmpp"}});
  expect_spellings<TraceProfile>({{"diurnal", TraceProfile::kDiurnal},
                                  {"sinusoid", TraceProfile::kDiurnal},
                                  {"bursts", TraceProfile::kBursts},
                                  {"burst", TraceProfile::kBursts},
                                  {"mmpp", TraceProfile::kMmpp},
                                  {"onoff", TraceProfile::kMmpp}},
                                 "diurnal, bursts, mmpp");
  expect_round_trip<Architecture>(
      {{Architecture::kMonolithicCrossLight, "CrossLight"},
       {Architecture::kElec2p5D, "2.5D-CrossLight-Elec"},
       {Architecture::kSiph2p5D, "2.5D-CrossLight-SiPh"}});
  expect_spellings<Architecture>(
      {{"mono", Architecture::kMonolithicCrossLight},
       {"crosslight", Architecture::kMonolithicCrossLight},
       {"CrossLight", Architecture::kMonolithicCrossLight},
       {"elec", Architecture::kElec2p5D},
       {"2.5D-CrossLight-Elec", Architecture::kElec2p5D},
       {"siph", Architecture::kSiph2p5D},
       {"2.5D-CrossLight-SiPh", Architecture::kSiph2p5D}},
      "mono, elec, siph");
  expect_round_trip<ModulationFormat>({{ModulationFormat::kOok, "OOK"},
                                       {ModulationFormat::kPam4, "PAM-4"}});
  expect_spellings<ModulationFormat>({{"ook", ModulationFormat::kOok},
                                      {"OOK", ModulationFormat::kOok},
                                      {"pam4", ModulationFormat::kPam4},
                                      {"PAM-4", ModulationFormat::kPam4},
                                      {"PAM4", ModulationFormat::kPam4}},
                                     "ook, pam4");
  expect_round_trip<BalancerPolicy>(
      {{BalancerPolicy::kRoundRobin, "rr"},
       {BalancerPolicy::kLeastLoaded, "least"},
       {BalancerPolicy::kLocalityAware, "locality"}});
  expect_spellings<BalancerPolicy>(
      {{"rr", BalancerPolicy::kRoundRobin},
       {"round-robin", BalancerPolicy::kRoundRobin},
       {"least", BalancerPolicy::kLeastLoaded},
       {"least-loaded", BalancerPolicy::kLeastLoaded},
       {"locality", BalancerPolicy::kLocalityAware},
       {"locality-aware", BalancerPolicy::kLocalityAware}},
      "rr, least, locality");
  expect_round_trip<Fidelity>({{Fidelity::kAnalytical, "analytical"},
                               {Fidelity::kCycleAccurate, "cycle"},
                               {Fidelity::kSampled, "sampled"}});
  expect_spellings<Fidelity>({{"analytical", Fidelity::kAnalytical},
                              {"tlm", Fidelity::kAnalytical},
                              {"cycle", Fidelity::kCycleAccurate},
                              {"cycle-accurate", Fidelity::kCycleAccurate},
                              {"sampled", Fidelity::kSampled}},
                             "analytical, cycle, sampled");
  // The CLIs' log level is never printed, so it has no to_string.
  expect_spellings<LogLevel>({{"quiet", LogLevel::kQuiet},
                              {"info", LogLevel::kInfo},
                              {"debug", LogLevel::kDebug}},
                             "quiet, info, debug");
  // --help shows the same list joined by '|'.
  EXPECT_EQ(util::choices<BatchPolicy>("|"), "none|size|deadline|cont");
  EXPECT_EQ(cli::fidelity_help().rfind(
                "comma list of analytical|cycle|sampled (default\n", 0),
            0u);
  // The CLI factories' errors carry the lists, and a caller's extra
  // spelling follows the table's.
  std::vector<Architecture> archs;
  EXPECT_EQ(cli::append_choices(archs, "architecture", "all")("mono,tpu"),
            "unknown architecture: tpu (valid: mono, elec, siph, all)");
  EXPECT_EQ(archs, std::vector<Architecture>{
                       Architecture::kMonolithicCrossLight});
  std::vector<FidelitySpec> fidelities;
  EXPECT_EQ(cli::append_fidelities(fidelities)("quantum"),
            "unknown fidelity: quantum (valid: analytical, cycle, "
            "sampled[:windows=W,layers=L,seed=S,conf=C])");
}

}  // namespace
}  // namespace optiplet::core
