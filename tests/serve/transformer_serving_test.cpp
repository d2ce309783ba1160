#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster_simulator.hpp"
#include "dnn/transformer.hpp"
#include "dnn/zoo.hpp"
#include "serve/arrivals.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"
#include "serve/tracegen.hpp"
#include "util/rng.hpp"

namespace optiplet::serve {
namespace {

/// A single-TinyGPT serving spec with variable-length token geometry.
ServingSpec transformer_spec(std::uint32_t prefill, std::uint32_t decode,
                             BatchPolicy policy, double rate_rps,
                             std::uint64_t requests) {
  ServingSpec spec;
  spec.tenant_mix = "TinyGPT";
  spec.prefill_tokens = prefill;
  spec.decode_tokens = decode;
  spec.policy = policy;
  spec.arrival_rps = rate_rps;
  spec.requests = requests;
  return spec;
}

ServingConfig make_config(const ServingSpec& spec,
                          bool record_batches = false) {
  ServingConfig config =
      make_serving_config(core::default_system_config(),
                          accel::Architecture::kSiph2p5D, spec);
  config.record_batches = record_batches;
  return config;
}

TEST(TransformerServing, CompletesAndIsDeterministic) {
  const auto config = make_config(
      transformer_spec(64, 16, BatchPolicy::kContinuous, 120.0, 200));
  const auto a = simulate(config);
  const auto b = simulate(config);
  EXPECT_EQ(a.metrics.offered, 200u);
  EXPECT_EQ(a.metrics.completed, 200u);
  EXPECT_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
  EXPECT_EQ(a.metrics.p99_s, b.metrics.p99_s);
  EXPECT_EQ(a.metrics.energy_j, b.metrics.energy_j);
  EXPECT_EQ(a.metrics.ttft_p99_s, b.metrics.ttft_p99_s);
  EXPECT_EQ(a.metrics.decode_tps, b.metrics.decode_tps);
  EXPECT_EQ(a.metrics.kv_peak_bytes, b.metrics.kv_peak_bytes);
  // Variable-length metrics are live: every request produced a first
  // token and 16 generated tokens landed per completion.
  EXPECT_GT(a.metrics.ttft_p99_s, 0.0);
  EXPECT_NEAR(a.metrics.decode_tps * a.metrics.makespan_s, 200.0 * 16.0,
              1.0);
  EXPECT_GT(a.metrics.kv_peak_bytes, 0u);
}

TEST(TransformerServing, DecodeZeroPricesBitIdenticallyToFixedShape) {
  // Degeneracy: a variable-length request with decode_tokens == 0 and
  // prefill at the zoo's default context is *the* fixed-shape TinyGPT
  // request — the prefill graph at 256 tokens is the registered model.
  // The whole run must price bit-identically through the per-phase
  // oracle path, batched or not.
  const std::uint32_t context = dnn::tiny_gpt_spec().default_context;
  for (const BatchPolicy policy :
       {BatchPolicy::kNone, BatchPolicy::kFixedSize}) {
    ServingSpec var = transformer_spec(context, 0, policy, 60.0, 160);
    var.max_batch = 4;
    ServingSpec fixed = var;
    fixed.prefill_tokens = 0;  // fixed-shape: the zoo graph as-is
    fixed.decode_tokens = 0;
    const auto v = simulate(make_config(var));
    const auto f = simulate(make_config(fixed));
    EXPECT_EQ(v.metrics.completed, f.metrics.completed);
    EXPECT_EQ(v.metrics.makespan_s, f.metrics.makespan_s);
    EXPECT_EQ(v.metrics.mean_latency_s, f.metrics.mean_latency_s);
    EXPECT_EQ(v.metrics.p50_s, f.metrics.p50_s);
    EXPECT_EQ(v.metrics.p99_s, f.metrics.p99_s);
    EXPECT_EQ(v.metrics.energy_j, f.metrics.energy_j);
    EXPECT_EQ(v.metrics.mean_batch, f.metrics.mean_batch);
    // The variable-length run reports token metrics on top; pure prefill
    // generates nothing, so TTFT equals the completion tail.
    EXPECT_EQ(v.metrics.decode_tps, 0.0);
    EXPECT_EQ(v.metrics.ttft_p99_s, v.metrics.p99_s);
  }
}

TEST(TransformerServing, ContinuousSingleUserMatchesNoBatchExactly) {
  // Degeneracy: with one closed-loop user there is never a second request
  // to join the running batch, so iteration-level scheduling must reduce
  // to the no-batch path — identical completion times, bit for bit.
  ServingSpec base = transformer_spec(64, 16, BatchPolicy::kNone, 0.0, 50);
  base.source = ArrivalSource::kClosedLoop;
  base.users = 1;
  base.token_spread = 0.4;  // varied shapes: same seeded draws both runs
  ServingSpec cont = base;
  cont.policy = BatchPolicy::kContinuous;
  const auto none = simulate(make_config(base));
  const auto iter = simulate(make_config(cont));
  EXPECT_EQ(none.metrics.completed, iter.metrics.completed);
  EXPECT_EQ(none.metrics.makespan_s, iter.metrics.makespan_s);
  EXPECT_EQ(none.metrics.mean_latency_s, iter.metrics.mean_latency_s);
  EXPECT_EQ(none.metrics.p50_s, iter.metrics.p50_s);
  EXPECT_EQ(none.metrics.p99_s, iter.metrics.p99_s);
  EXPECT_EQ(none.metrics.ttft_p99_s, iter.metrics.ttft_p99_s);
  EXPECT_EQ(none.metrics.decode_tps, iter.metrics.decode_tps);
  EXPECT_EQ(none.metrics.energy_j, iter.metrics.energy_j);
}

TEST(TransformerServing, ContinuousPrefillOnlyRetiresInItsPrefillIteration) {
  // A request with no generated tokens is finished the moment its prompt
  // lands, so under `cont` every sequence retires in its own prefill
  // iteration and no decode iteration ever runs.
  ServingSpec spec =
      transformer_spec(64, 0, BatchPolicy::kContinuous, 300.0, 200);
  spec.token_spread = 0.5;
  spec.max_batch = 8;
  const auto report = simulate(make_config(spec, /*record_batches=*/true));
  EXPECT_EQ(report.metrics.completed, report.metrics.offered);
  EXPECT_EQ(report.metrics.decode_tps, 0.0);
  EXPECT_EQ(report.metrics.ttft_p99_s, report.metrics.p99_s);
  // Every iteration is recorded, but only prefills count as batches.
  ASSERT_EQ(report.tenants.size(), 1u);
  EXPECT_EQ(report.batches.size(), report.tenants[0].batches);
}

TEST(TransformerServing, KvBudgetCapsConcurrentDecodeSlots) {
  // 8 MiB budget, 288-token final context at 8 KiB/token = 2.25 MiB per
  // request -> exactly 3 concurrent slots, however large max_batch is.
  ServingSpec spec =
      transformer_spec(256, 32, BatchPolicy::kContinuous, 300.0, 120);
  spec.max_batch = 8;
  spec.kv_cache_mb = 8.0;
  const std::uint64_t budget = 8ull << 20;
  const std::uint64_t per_request =
      288ull * dnn::kv_bytes_per_token(dnn::tiny_gpt_spec(), 8);
  ASSERT_EQ(budget / per_request, 3u);
  for (const BatchPolicy policy :
       {BatchPolicy::kContinuous, BatchPolicy::kFixedSize}) {
    spec.policy = policy;
    const auto report = simulate(make_config(spec, /*record_batches=*/true));
    EXPECT_EQ(report.metrics.completed, 120u);
    ASSERT_FALSE(report.batches.empty());
    for (const BatchTrace& b : report.batches) {
      EXPECT_LE(b.size, 3u) << to_string(policy);
    }
    EXPECT_GT(report.metrics.kv_peak_bytes, 0u);
    EXPECT_LE(report.metrics.kv_peak_bytes, budget);
  }
}

TEST(TransformerServing, ContinuousBeatsFixedBatchAtDecodeHeavyLoad) {
  // The paper-motivating result: at saturating decode-heavy load with
  // varied generation lengths, iteration-level batching keeps slots full
  // (completions free a slot at a token boundary; a waiting prefill takes
  // it immediately) while fixed-size batches pad every member to the
  // longest generation and make arrivals wait for whole-batch
  // completion. Continuous must win goodput *and* tail latency, and get
  // first tokens out sooner. (With spread == 0 the padding waste
  // vanishes and fixed batching's perfect prefill amortization wins —
  // the straggler spread is what continuous batching monetizes.)
  ServingSpec fixed =
      transformer_spec(32, 96, BatchPolicy::kFixedSize, 300.0, 250);
  fixed.max_batch = 8;
  fixed.token_spread = 0.6;
  ServingSpec cont = fixed;
  cont.policy = BatchPolicy::kContinuous;
  const auto f = simulate(make_config(fixed));
  const auto c = simulate(make_config(cont));
  EXPECT_EQ(f.metrics.completed, 250u);
  EXPECT_EQ(c.metrics.completed, 250u);
  EXPECT_GE(c.metrics.goodput_rps, f.metrics.goodput_rps);
  EXPECT_LE(c.metrics.p99_s, f.metrics.p99_s);
  EXPECT_LT(c.metrics.ttft_p99_s, f.metrics.ttft_p99_s);
}

TEST(TransformerServing, TraceTokenGeometryRoundTrips) {
  // tracegen -> CSV -> load -> simulate: shapes survive the interchange
  // format bit-exactly and drive the priced phases.
  TraceGenSpec gen;
  gen.profile = TraceProfile::kDiurnal;
  gen.base_rps = 150.0;
  gen.duration_s = 1.0;
  gen.tenants = {"TinyGPT"};
  gen.prefill_tokens = 64;
  gen.decode_tokens = 16;
  gen.token_spread = 0.5;
  const auto events = generate_trace(gen);
  ASSERT_FALSE(events.empty());
  const std::string path = testing::TempDir() + "tok_trace_roundtrip.csv";
  ASSERT_TRUE(write_arrival_trace(path, events));
  const auto loaded = load_arrival_trace(path);
  ASSERT_EQ(loaded.size(), events.size());
  bool any_spread = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(loaded[i].arrival_s, events[i].arrival_s);
    EXPECT_EQ(loaded[i].shape, events[i].shape);
    EXPECT_TRUE(loaded[i].shape.variable_length());
    any_spread |= loaded[i].shape != events.front().shape;
  }
  EXPECT_TRUE(any_spread);  // the spread actually varied the draws

  ServingSpec spec =
      transformer_spec(64, 16, BatchPolicy::kContinuous, 0.0, 0);
  spec.trace_path = path;
  const auto report = simulate(make_config(spec));
  EXPECT_EQ(report.metrics.offered, events.size());
  EXPECT_EQ(report.metrics.completed, events.size());
  EXPECT_GT(report.metrics.decode_tps, 0.0);
  std::remove(path.c_str());
}

TEST(TransformerServing, SinglePackageRackReproducesLoneSimulator) {
  // The rack front end draws request shapes with the same seeded stream
  // the lone simulator would, so a 1-package rack is bit-identical.
  ServingSpec spec =
      transformer_spec(64, 16, BatchPolicy::kContinuous, 100.0, 120);
  cluster::ClusterConfig rack_config;
  rack_config.system = core::default_system_config();
  rack_config.serving = spec;
  rack_config.cluster.packages = 1;
  rack_config.threads = 1;
  const auto rack = cluster::simulate(rack_config);
  const auto lone = simulate(make_config(spec));
  EXPECT_EQ(rack.metrics.rack.completed, lone.metrics.completed);
  EXPECT_EQ(rack.metrics.rack.makespan_s, lone.metrics.makespan_s);
  EXPECT_EQ(rack.metrics.rack.p99_s, lone.metrics.p99_s);
  EXPECT_EQ(rack.metrics.rack.ttft_p99_s, lone.metrics.ttft_p99_s);
  EXPECT_EQ(rack.metrics.rack.decode_tps, lone.metrics.decode_tps);
  EXPECT_EQ(rack.metrics.rack.kv_peak_bytes, lone.metrics.kv_peak_bytes);
}

TEST(TransformerServing, TokenGeometryValidation) {
  // Fail-fast contracts: CNN tenants cannot take token geometry, decode
  // without prefill is rejected, spread must stay in [0, 1), and the
  // worst-case request must fit the context window.
  ServingSpec spec = transformer_spec(64, 16, BatchPolicy::kNone, 50.0, 20);
  spec.tenant_mix = "LeNet5";
  EXPECT_THROW((void)simulate(make_config(spec)), std::invalid_argument);

  spec = transformer_spec(0, 16, BatchPolicy::kNone, 50.0, 20);
  EXPECT_THROW((void)simulate(make_config(spec)), std::invalid_argument);

  spec = transformer_spec(64, 16, BatchPolicy::kNone, 50.0, 20);
  spec.token_spread = 1.0;
  EXPECT_THROW((void)simulate(make_config(spec)), std::invalid_argument);

  // kContinuous needs a variable-length tenant.
  spec = transformer_spec(0, 0, BatchPolicy::kContinuous, 50.0, 20);
  spec.tenant_mix = "LeNet5";
  EXPECT_THROW((void)simulate(make_config(spec)), std::invalid_argument);

  // 2048-token window: mean 2000 with 10% spread overflows it.
  spec = transformer_spec(2000, 100, BatchPolicy::kNone, 50.0, 20);
  EXPECT_THROW((void)simulate(make_config(spec)), std::invalid_argument);
}

/// The fields a priced phase point is read for, as exact bit patterns.
std::vector<std::uint64_t> fingerprint(const core::RunResult& run) {
  std::vector<std::uint64_t> out = {
      std::bit_cast<std::uint64_t>(run.latency_s),
      std::bit_cast<std::uint64_t>(run.energy_j),
      run.resipi_reconfigurations, run.layers.size()};
  for (const auto& [name, entry] : run.ledger.entries()) {
    out.push_back(std::bit_cast<std::uint64_t>(entry.dynamic_energy_j));
    out.push_back(std::bit_cast<std::uint64_t>(entry.static_power_w));
  }
  return out;
}

TEST(ServiceTimeOracle, PhaseReferencesOutliveLaterPricing) {
  // Two phase points are held by reference while 200 more distinct points
  // are priced at batch sizes 1-16 and at prompt and KV lengths drawn over
  // the whole context window (plus the cap bucket and the one below it);
  // each reference must keep its address and contents, and the oracle
  // must count one miss per distinct (phase, batch, tokens) key.
  const dnn::TransformerSpec spec = dnn::tiny_gpt_spec();
  ServiceTimeOracle oracle(
      {{dnn::zoo::by_name("TinyGPT"), core::default_system_config(), spec}},
      accel::Architecture::kSiph2p5D);
  const core::RunResult& prefill = oracle.prefill_run(0, 3, 40);
  const core::RunResult& decode = oracle.decode_run(0, 2, 100);
  const auto prefill_bits = fingerprint(prefill);
  const auto decode_bits = fingerprint(decode);

  // (phase, batch, prompt length or KV bucket): 0 = prefill, 1 = decode.
  std::set<std::tuple<int, unsigned, std::uint32_t>> keys = {
      {0, 3, 40}, {1, 2, oracle.kv_bucket(0, 100)}};
  std::uint64_t lookups = 2;
  const auto price_decode = [&](unsigned batch, std::uint32_t kv) {
    (void)oracle.decode_run(0, batch, kv);
    keys.emplace(1, batch, oracle.kv_bucket(0, kv));
    ++lookups;
  };
  price_decode(2, spec.max_context - 1);  // the cap bucket
  price_decode(2, spec.max_context - 64);  // the grid bucket below it
  util::Xoshiro256 rng(5);
  while (keys.size() < 202) {
    const auto batch = static_cast<unsigned>(1 + rng.next_below(16));
    if (rng.next_bool(0.5)) {
      const auto tokens =
          static_cast<std::uint32_t>(1 + rng.next_below(spec.max_context));
      (void)oracle.prefill_run(0, batch, tokens);
      keys.emplace(0, batch, tokens);
      ++lookups;
    } else {
      const auto kv =
          static_cast<std::uint32_t>(rng.next_below(spec.max_context));
      price_decode(batch, kv);
    }
  }
  EXPECT_EQ(&oracle.prefill_run(0, 3, 40), &prefill);
  EXPECT_EQ(&oracle.decode_run(0, 2, 65), &decode);  // same bucket as 100
  lookups += 2;
  EXPECT_EQ(fingerprint(prefill), prefill_bits);
  EXPECT_EQ(fingerprint(decode), decode_bits);
  EXPECT_EQ(oracle.cache_misses(), keys.size());
  EXPECT_EQ(oracle.cache_hits(), lookups - keys.size());
}

}  // namespace
}  // namespace optiplet::serve
