#include "serve/serving_spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/system_config.hpp"
#include "serve/serving_simulator.hpp"
#include "util/rng.hpp"

namespace optiplet::serve {
namespace {

TEST(ServingSpecCodecs, BatchPolicyRoundTripsAndListsChoices) {
  for (const BatchPolicy p :
       {BatchPolicy::kNone, BatchPolicy::kFixedSize, BatchPolicy::kDeadline,
        BatchPolicy::kContinuous}) {
    const auto back = util::parse_name<BatchPolicy>(to_string(p));
    ASSERT_TRUE(back.has_value()) << to_string(p);
    EXPECT_EQ(*back, p);
    // Every canonical spelling appears in the CLI choice list.
    EXPECT_NE(util::choices<BatchPolicy>().find(to_string(p)),
              std::string::npos);
  }
  // Aliases.
  EXPECT_EQ(util::parse_name<BatchPolicy>("fifo"), BatchPolicy::kNone);
  EXPECT_EQ(util::parse_name<BatchPolicy>("no-batch"), BatchPolicy::kNone);
  EXPECT_EQ(util::parse_name<BatchPolicy>("fixed"), BatchPolicy::kFixedSize);
  EXPECT_EQ(util::parse_name<BatchPolicy>("fixed-size"),
            BatchPolicy::kFixedSize);
  EXPECT_EQ(util::parse_name<BatchPolicy>("dynamic"), BatchPolicy::kDeadline);
  EXPECT_EQ(util::parse_name<BatchPolicy>("continuous"),
            BatchPolicy::kContinuous);
  EXPECT_FALSE(util::parse_name<BatchPolicy>("bogus").has_value());
  EXPECT_FALSE(util::parse_name<BatchPolicy>("").has_value());
  EXPECT_EQ(util::choices<BatchPolicy>(), "none, size, deadline, cont");
}

TEST(ServingSpecCodecs, PipelineModeRoundTrips) {
  for (const PipelineMode m :
       {PipelineMode::kBatchGranular, PipelineMode::kLayerGranular}) {
    EXPECT_EQ(util::parse_name<PipelineMode>(to_string(m)), m);
    EXPECT_NE(util::choices<PipelineMode>().find(to_string(m)),
              std::string::npos);
  }
  EXPECT_EQ(util::parse_name<PipelineMode>("blocked"),
            PipelineMode::kBatchGranular);
  EXPECT_EQ(util::parse_name<PipelineMode>("pipelined"),
            PipelineMode::kLayerGranular);
  EXPECT_FALSE(util::parse_name<PipelineMode>("bogus").has_value());
  EXPECT_FALSE(util::parse_name<PipelineMode>("").has_value());
  EXPECT_EQ(util::choices<PipelineMode>(), "batch, layer");
}

TEST(ServingSpecCodecs, ArrivalSourceRoundTrips) {
  for (const ArrivalSource s :
       {ArrivalSource::kOpenLoop, ArrivalSource::kClosedLoop}) {
    EXPECT_EQ(util::parse_name<ArrivalSource>(to_string(s)), s);
    EXPECT_NE(util::choices<ArrivalSource>().find(to_string(s)),
              std::string::npos);
  }
  EXPECT_EQ(util::parse_name<ArrivalSource>("poisson"),
            ArrivalSource::kOpenLoop);
  EXPECT_EQ(util::parse_name<ArrivalSource>("closed-loop"),
            ArrivalSource::kClosedLoop);
  EXPECT_FALSE(util::parse_name<ArrivalSource>("bogus").has_value());
  EXPECT_FALSE(util::parse_name<ArrivalSource>("").has_value());
  EXPECT_EQ(util::choices<ArrivalSource>(), "open, closed");
}

TEST(ServingSpecCodecs, AdmissionPolicyRoundTrips) {
  for (const AdmissionPolicy p :
       {AdmissionPolicy::kAdmitAll, AdmissionPolicy::kSlaShed}) {
    EXPECT_EQ(util::parse_name<AdmissionPolicy>(to_string(p)), p);
    EXPECT_NE(util::choices<AdmissionPolicy>().find(to_string(p)),
              std::string::npos);
  }
  // "none" admits everything here but means no batching for BatchPolicy.
  EXPECT_EQ(util::parse_name<AdmissionPolicy>("none"),
            AdmissionPolicy::kAdmitAll);
  EXPECT_EQ(util::parse_name<AdmissionPolicy>("admit-all"),
            AdmissionPolicy::kAdmitAll);
  EXPECT_EQ(util::parse_name<AdmissionPolicy>("sla-shed"),
            AdmissionPolicy::kSlaShed);
  EXPECT_FALSE(util::parse_name<AdmissionPolicy>("bogus").has_value());
  EXPECT_FALSE(util::parse_name<AdmissionPolicy>("").has_value());
  EXPECT_EQ(util::choices<AdmissionPolicy>(), "all, shed");
}

TEST(RequestShapeDraw, ZeroSpreadReturnsExactMeansWithoutConsumingRng) {
  util::Xoshiro256 a(7);
  util::Xoshiro256 b(7);
  const RequestShape shape = draw_request_shape(64, 16, 0.0, a);
  EXPECT_EQ(shape.prefill_tokens, 64u);
  EXPECT_EQ(shape.decode_tokens, 16u);
  // The RNG stream is untouched: both generators still agree.
  EXPECT_EQ(a.next_double(), b.next_double());
}

TEST(RequestShapeDraw, SpreadStaysInBandAndIsSeedDeterministic) {
  util::Xoshiro256 rng(42);
  util::Xoshiro256 replay(42);
  for (int i = 0; i < 200; ++i) {
    const RequestShape s = draw_request_shape(100, 20, 0.5, rng);
    // mean*(1 ± spread), rounded to the nearest token, floor 1.
    EXPECT_GE(s.prefill_tokens, 50u);
    EXPECT_LE(s.prefill_tokens, 150u);
    EXPECT_GE(s.decode_tokens, 10u);
    EXPECT_LE(s.decode_tokens, 30u);
    EXPECT_EQ(s, draw_request_shape(100, 20, 0.5, replay));
  }
  // A zero decode mean stays zero under spread (pure-prefill streams).
  util::Xoshiro256 rng2(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(draw_request_shape(100, 0, 0.5, rng2).decode_tokens, 0u);
  }
}

TEST(RequestShape, TotalAndVariableLength) {
  const RequestShape fixed{};
  EXPECT_FALSE(fixed.variable_length());
  EXPECT_EQ(fixed.total_tokens(), 0u);
  const RequestShape var{256, 32};
  EXPECT_TRUE(var.variable_length());
  EXPECT_EQ(var.total_tokens(), 288u);
}

/// make_serving_config's message for `spec`, or "" when it accepts it.
std::string entry_error(
    const ServingSpec& spec,
    accel::Architecture arch = accel::Architecture::kSiph2p5D) {
  try {
    (void)make_serving_config(core::default_system_config(), arch, spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// What serve::simulate would only catch as a failed requirement fails in
// make_serving_config instead, naming the field and the value.
TEST(ServingEntryChecks, NameTheFieldTheyRefuse) {
  ServingSpec fixed_shape;
  fixed_shape.tenant_mix = "LeNet5";
  fixed_shape.prefill_tokens = 8;
  EXPECT_EQ(entry_error(fixed_shape),
            "prefill_tokens 8 on fixed-shape model LeNet5 (token geometry "
            "needs a transformer)");

  ServingSpec too_long;
  too_long.tenant_mix = "TinyGPT";
  too_long.prefill_tokens = 2000;
  too_long.decode_tokens = 40;
  too_long.token_spread = 0.5;
  EXPECT_EQ(entry_error(too_long),
            "prefill_tokens 2000, decode_tokens 40 and token_spread 0.5 make "
            "a request of 3060 tokens, over the max_context 2048 of TinyGPT");
  too_long.token_spread = 0.0;
  too_long.prefill_tokens = 2008;
  EXPECT_EQ(entry_error(too_long), "");  // exactly max_context fits

  ServingSpec dead_chiplet;
  dead_chiplet.tenant_mix = "LeNet5";
  dead_chiplet.elastic.faults.push_back({1.0, 8, 1.0, -1});
  EXPECT_EQ(entry_error(dead_chiplet),
            "fault=1:8:1:-1 names chiplet 8 outside the 2.5D pool of 8 "
            "chiplets");
  dead_chiplet.elastic.faults.back().chiplet = 7;
  EXPECT_EQ(entry_error(dead_chiplet), "");
  // An unarmed fault (t = inf) schedules nothing, so its chiplet is not
  // checked.
  dead_chiplet.elastic.faults.back() = FaultSpec{};
  dead_chiplet.elastic.faults.back().chiplet = 99;
  EXPECT_EQ(entry_error(dead_chiplet), "");

  ServingSpec continuous;
  continuous.tenant_mix = "LeNet5";
  continuous.policy = BatchPolicy::kContinuous;
  EXPECT_EQ(entry_error(continuous),
            "policy cont on fixed-shape model LeNet5 (continuous batching "
            "needs prefill_tokens > 0)");
  continuous.policy = BatchPolicy::kDeadline;
  EXPECT_EQ(entry_error(continuous), "");

  ServingSpec promptless;
  promptless.tenant_mix = "TinyGPT";
  promptless.decode_tokens = 8;
  EXPECT_EQ(entry_error(promptless),
            "decode_tokens 8 without prefill_tokens on TinyGPT (decode needs "
            "a prompt)");
  promptless.prefill_tokens = 1;
  EXPECT_EQ(entry_error(promptless), "");

  ServingSpec spread;
  spread.tenant_mix = "TinyGPT";
  spread.prefill_tokens = 64;
  spread.token_spread = 1.5;
  EXPECT_EQ(entry_error(spread),
            "token_spread 1.5 on TinyGPT is outside [0, 1)");
  spread.token_spread = 0.99;
  EXPECT_EQ(entry_error(spread), "");
  // The range holds for every tenant, not only those that draw tokens.
  spread.prefill_tokens = 0;
  spread.token_spread = 1.5;
  EXPECT_EQ(entry_error(spread),
            "token_spread 1.5 on TinyGPT is outside [0, 1)");
  spread.tenant_mix = "LeNet5";
  spread.token_spread = -0.25;
  EXPECT_EQ(entry_error(spread),
            "token_spread -0.25 on LeNet5 is outside [0, 1)");
  spread.token_spread = 0.5;
  EXPECT_EQ(entry_error(spread), "");

  ServingSpec pipelined;
  pipelined.tenant_mix = "LeNet5";
  pipelined.pipeline = PipelineMode::kLayerGranular;
  pipelined.elastic.faults.push_back({1.0, 2, 1.0, -1});
  EXPECT_EQ(entry_error(pipelined),
            "fault=1:2:1:-1 needs pipeline batch, not layer: layer-granular "
            "stage chains cannot follow a mid-run re-partition or fault");
  pipelined.pipeline = PipelineMode::kBatchGranular;
  EXPECT_EQ(entry_error(pipelined), "");

  ServingSpec monolithic;
  monolithic.tenant_mix = "LeNet5";
  monolithic.elastic.shift_threshold = 0.2;
  EXPECT_EQ(entry_error(monolithic,
                        accel::Architecture::kMonolithicCrossLight),
            "shift=0.2 re-partitions the 2.5D chiplet pool, which the "
            "monolithic architecture does not have");
  EXPECT_EQ(entry_error(monolithic), "");

  ServingSpec small_cache;
  small_cache.tenant_mix = "TinyGPT";
  small_cache.prefill_tokens = 64;
  small_cache.kv_cache_mb = 0.001;
  EXPECT_EQ(entry_error(small_cache),
            "kv_cache_mb 0.001 cannot hold one worst-case request of 64 "
            "tokens on TinyGPT, which needs 0.5 MiB");
  small_cache.kv_cache_mb = 0.5;  // exactly one request
  EXPECT_EQ(entry_error(small_cache), "");
}

// Once every user of a closed loop waits on a queued request, a size
// batch larger than the user pool never fills: the run would stall, so it
// is refused at entry. The bound is the batch the run uses, after the KV
// cap.
TEST(ServingEntryChecks, RefuseASizeBatchTheClosedLoopCannotFill) {
  ServingSpec closed;
  closed.tenant_mix = "LeNet5";
  closed.source = ArrivalSource::kClosedLoop;
  closed.policy = BatchPolicy::kFixedSize;
  closed.users = 4;
  closed.requests = 100;
  EXPECT_EQ(entry_error(closed),
            "closed loop of 4 users on LeNet5 can never fill its size batch "
            "of 8 (100 requests): use at least 8 users, or another policy");
  const auto completed = [](const ServingSpec& spec) {
    return simulate(make_serving_config(core::default_system_config(),
                                        accel::Architecture::kSiph2p5D,
                                        spec))
        .metrics.completed;
  };
  // A budget the users issue without waiting flushes when it runs out.
  closed.requests = 4;
  EXPECT_EQ(completed(closed), 4u);
  // Nine users fill batches of eight.
  closed.users = 9;
  closed.requests = 100;
  EXPECT_EQ(completed(closed), 100u);
  // The KV budget caps TinyGPT's batch to the 4 slots its 4 users fill.
  ServingSpec capped = closed;
  capped.tenant_mix = "TinyGPT";
  capped.users = 4;
  capped.prefill_tokens = 32;
  capped.decode_tokens = 8;
  capped.kv_cache_mb = 1.25;
  EXPECT_EQ(completed(capped), 100u);
  capped.users = 3;
  EXPECT_EQ(entry_error(capped),
            "closed loop of 3 users on TinyGPT can never fill its size batch "
            "of 4 (100 requests): use at least 4 users, or another policy");
}

}  // namespace
}  // namespace optiplet::serve
