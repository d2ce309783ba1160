/// \file elastic_test.cpp
/// Property / degeneracy harness of elastic operation
/// (docs/elastic-operation.md):
///   * an inert ElasticSpec — infinite shift threshold, gating off, no
///     armed faults, no retry — is bit-identical to the static run on
///     EVERY ServingMetrics field (sim_events included), on the lone
///     simulator and on an N>1 rack; a fault at t = inf is equally inert;
///   * the drain identity offered == completed + shed + abandoned holds
///     under every arrival source x batch policy x pipeline mode, and a
///     retry storm is bounded by the capped attempt budget;
///   * elastic + fault + gating runs are bit-identical across repeated
///     evaluations, sweep-thread counts, and rack worker counts, and the
///     fault/retry RNG streams never perturb the arrival or token draws
///     (spread-0 contract);
///   * every re-partition charges exactly one ReSiPI PCM-write window
///     (the repartition mirror of the one-retune-per-handoff invariant);
///   * power-gating removes measured idle energy from the ledger and
///     charges the wake in both pipeline modes, and a dead-chiplet fault
///     mid-run leaves a degraded but serving pool.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster_simulator.hpp"
#include "core/system_config.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "serve/elastic.hpp"
#include "serve/serving_simulator.hpp"

namespace optiplet::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ServingSpec base_spec(const std::string& mix, double rate_rps,
                      std::uint64_t requests) {
  ServingSpec spec;
  spec.tenant_mix = mix;
  spec.arrival_rps = rate_rps;
  spec.requests = requests;
  spec.policy = BatchPolicy::kDeadline;
  spec.admission = AdmissionPolicy::kSlaShed;
  return spec;
}

ServingReport run(const ServingSpec& spec,
                  accel::Architecture arch = accel::Architecture::kSiph2p5D) {
  return simulate(
      make_serving_config(core::default_system_config(), arch, spec));
}

/// Every field of ServingMetrics, compared bit-for-bit. Any new metric
/// must be added here or the degeneracy contract silently narrows.
void expect_metrics_identical(const ServingMetrics& a,
                              const ServingMetrics& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.throughput_rps, b.throughput_rps);
  EXPECT_EQ(a.goodput_rps, b.goodput_rps);
  EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
  EXPECT_EQ(a.p50_s, b.p50_s);
  EXPECT_EQ(a.p95_s, b.p95_s);
  EXPECT_EQ(a.p99_s, b.p99_s);
  EXPECT_EQ(a.max_latency_s, b.max_latency_s);
  EXPECT_EQ(a.sla_violation_rate, b.sla_violation_rate);
  EXPECT_EQ(a.mean_batch, b.mean_batch);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.energy_per_request_j, b.energy_per_request_j);
  EXPECT_EQ(a.resipi_conflicts, b.resipi_conflicts);
  EXPECT_EQ(a.resipi_wait_s, b.resipi_wait_s);
  EXPECT_EQ(a.shared_handoffs, b.shared_handoffs);
  EXPECT_EQ(a.handoff_resipi_s, b.handoff_resipi_s);
  EXPECT_EQ(a.service_cache_hits, b.service_cache_hits);
  EXPECT_EQ(a.service_cache_misses, b.service_cache_misses);
  EXPECT_EQ(a.p99_hi_s, b.p99_hi_s);
  EXPECT_EQ(a.p99_lo_s, b.p99_lo_s);
  EXPECT_EQ(a.first_arrival_abs_s, b.first_arrival_abs_s);
  EXPECT_EQ(a.last_completion_abs_s, b.last_completion_abs_s);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.sim_event_queue_peak, b.sim_event_queue_peak);
  EXPECT_EQ(a.ttft_p99_s, b.ttft_p99_s);
  EXPECT_EQ(a.decode_tps, b.decode_tps);
  EXPECT_EQ(a.kv_peak_bytes, b.kv_peak_bytes);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.repartitions, b.repartitions);
  EXPECT_EQ(a.repartition_resipi_s, b.repartition_resipi_s);
  EXPECT_EQ(a.gate_events, b.gate_events);
  EXPECT_EQ(a.gated_idle_s, b.gated_idle_s);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.carbon_g, b.carbon_g);
}

TEST(ElasticSpecCodec, RoundTripsAndRejectsGarbage) {
  EXPECT_EQ(to_string(ElasticSpec{}), "static");
  EXPECT_EQ(elastic_from_string("static"), ElasticSpec{});
  EXPECT_EQ(elastic_from_string(""), ElasticSpec{});

  ElasticSpec spec;
  spec.shift_threshold = 0.2;
  spec.ema_tau_s = 60.0;
  spec.cooldown_s = 600.0;
  spec.gate = true;
  spec.gate_after_s = 1.0e-3;
  spec.wake_s = 1.0e-4;
  spec.retry_max_attempts = 4;
  spec.retry_backoff_s = 2.0e-3;
  spec.curve_bucket_s = 3600.0;
  spec.carbon_amplitude = 0.5;
  spec.faults.push_back({3600.0, 2, 1.0, -1});
  spec.faults.push_back({7200.0, -1, 0.5, 1});
  const auto parsed = elastic_from_string(to_string(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);

  EXPECT_FALSE(elastic_from_string("shift").has_value());
  EXPECT_FALSE(elastic_from_string("shift=a").has_value());
  EXPECT_FALSE(elastic_from_string("gate=1e-3").has_value());
  EXPECT_FALSE(elastic_from_string("fault=1:2:3").has_value());
  EXPECT_FALSE(elastic_from_string("bogus=1").has_value());

  // Arming semantics: the defaulted fault (t = inf) is unarmed, and so
  // is a finite-time no-op fault (no chiplet, no derate).
  EXPECT_FALSE(FaultSpec{}.armed());
  EXPECT_FALSE((FaultSpec{1.0, -1, 1.0, -1}).armed());
  EXPECT_TRUE((FaultSpec{1.0, 2, 1.0, -1}).armed());
  EXPECT_TRUE((FaultSpec{1.0, -1, 0.5, -1}).armed());
  EXPECT_FALSE(ElasticSpec{}.enabled());
  EXPECT_TRUE(spec.enabled());
}

TEST(ElasticDegeneracy, InertPolicyIsBitIdenticalToStatic) {
  // The inert spec arms everything at its no-op point: an infinite shift
  // threshold, gating off, zero retry attempts, and a fault at t = inf.
  // Every ServingMetrics field — the event count included — must match
  // the static run exactly, on both pipeline modes.
  for (const PipelineMode pipeline :
       {PipelineMode::kBatchGranular, PipelineMode::kLayerGranular}) {
    ServingSpec spec = base_spec("LeNet5+MobileNetV2", 3000.0, 400);
    spec.pipeline = pipeline;
    const ServingReport fixed = run(spec);

    spec.elastic.shift_threshold = kInf;
    spec.elastic.faults.push_back({kInf, 2, 0.5, -1});
    const ServingReport inert = run(spec);
    expect_metrics_identical(fixed.metrics, inert.metrics);
    EXPECT_EQ(inert.metrics.faults_injected, 0u);
    EXPECT_TRUE(inert.day_curve.empty());
    ASSERT_EQ(fixed.tenants.size(), inert.tenants.size());
    for (std::size_t t = 0; t < fixed.tenants.size(); ++t) {
      EXPECT_EQ(fixed.tenant_latencies[t], inert.tenant_latencies[t]);
    }
  }
}

TEST(ElasticDegeneracy, InertPolicyIsBitIdenticalOnTheRack) {
  cluster::ClusterConfig config;
  config.system = core::default_system_config();
  config.serving = base_spec("LeNet5+MobileNetV2", 4000.0, 400);
  config.cluster.packages = 2;
  config.threads = 1;
  const cluster::ClusterReport fixed = cluster::simulate(config);

  config.serving.elastic.shift_threshold = kInf;
  config.serving.elastic.faults.push_back({kInf, 0, 0.5, 1});
  const cluster::ClusterReport inert = cluster::simulate(config);
  expect_metrics_identical(fixed.metrics.rack, inert.metrics.rack);
  EXPECT_EQ(fixed.metrics.transfers, inert.metrics.transfers);
  EXPECT_TRUE(inert.day_curve.empty());
}

TEST(ElasticProperty, DrainIdentityHoldsAcrossTheFullPolicyGrid) {
  // offered == completed + shed + abandoned must survive every arrival
  // source x batch policy x pipeline mode with retry enabled, under an
  // SLA tight enough to actually shed. Retry storms stay bounded by the
  // capped budget: retries <= offered * max_attempts.
  constexpr unsigned kMaxAttempts = 3;
  for (const ArrivalSource source :
       {ArrivalSource::kOpenLoop, ArrivalSource::kClosedLoop}) {
    for (const BatchPolicy policy :
         {BatchPolicy::kNone, BatchPolicy::kFixedSize,
          BatchPolicy::kDeadline}) {
      for (const PipelineMode pipeline :
           {PipelineMode::kBatchGranular, PipelineMode::kLayerGranular}) {
        ServingSpec spec = base_spec("LeNet5", 20000.0, 200);
        spec.policy = policy;
        spec.pipeline = pipeline;
        spec.source = source;
        spec.users = 64;
        spec.think_s = 1.0e-5;
        spec.sla_s = 2.0e-4;  // tight: saturating load must shed
        spec.elastic.retry_max_attempts = kMaxAttempts;
        spec.elastic.retry_backoff_s = 1.0e-4;
        const ServingMetrics m = run(spec).metrics;
        const std::string label =
            std::string(to_string(source)) + "/" + to_string(policy) + "/" +
            to_string(pipeline);
        EXPECT_EQ(m.offered, m.completed + m.shed + m.abandoned) << label;
        EXPECT_GT(m.completed, 0u) << label;
        EXPECT_LE(m.retries, m.offered * kMaxAttempts) << label;
        // With retry enabled a rejected request is never counted shed —
        // it defers, and only its exhausted budget abandons it.
        EXPECT_EQ(m.shed, 0u) << label;
      }
    }
  }
}

TEST(ElasticProperty, RetryStormAbandonsAtTheCapAndDefersSomeIntoService) {
  // Saturate hard so admission rejects most arrivals. Deferral must both
  // abandon (budget exhausted) and rescue (a backoff slot opened).
  // 2000 requests at 50k rps = a 40 ms overload window, far longer than
  // the worst-case cumulative backoff (~2 ms), so early rejects exhaust
  // their budget inside the storm while late rejects defer past its end.
  ServingSpec shed_spec = base_spec("LeNet5", 50000.0, 2000);
  shed_spec.sla_s = 1.5e-4;
  const ServingMetrics fixed = run(shed_spec).metrics;
  ASSERT_GT(fixed.shed, 0u);

  ServingSpec retry_spec = shed_spec;
  retry_spec.elastic.retry_max_attempts = 4;
  retry_spec.elastic.retry_backoff_s = 1.0e-4;
  const ServingMetrics retried = run(retry_spec).metrics;
  EXPECT_EQ(retried.offered, fixed.offered);
  EXPECT_GT(retried.retries, 0u);
  EXPECT_GT(retried.abandoned, 0u);
  EXPECT_LE(retried.retries, retried.offered * 4);
  // Backoff rescues at least some rejected requests into completion.
  EXPECT_GT(retried.completed, fixed.completed);
  EXPECT_EQ(retried.offered,
            retried.completed + retried.shed + retried.abandoned);
}

/// The full-bore policy used by the determinism and accounting tests:
/// aggressive re-partitioning, gating, retry, a mid-run chiplet death,
/// and a bandwidth derate, all at once.
ServingSpec full_elastic_spec() {
  ServingSpec spec = base_spec("LeNet5+MobileNetV2", 3000.0, 500);
  spec.elastic.shift_threshold = 0.05;
  spec.elastic.ema_tau_s = 0.05;
  spec.elastic.cooldown_s = 0.1;
  spec.elastic.gate = true;
  spec.elastic.gate_after_s = 1.0e-4;
  spec.elastic.wake_s = 1.0e-5;
  spec.elastic.retry_max_attempts = 2;
  spec.elastic.retry_backoff_s = 1.0e-3;
  spec.elastic.curve_bucket_s = 0.05;
  spec.elastic.carbon_amplitude = 0.5;
  spec.elastic.carbon_period_s = 0.4;
  spec.elastic.faults.push_back({0.08, 2, 1.0, -1});   // dead chiplet
  spec.elastic.faults.push_back({0.12, -1, 0.8, -1});  // drifted microring
  return spec;
}

TEST(ElasticDeterminism, FullPolicyIsBitIdenticalAcrossRunsAndSweepThreads) {
  const ServingSpec spec = full_elastic_spec();
  const ServingReport a = run(spec);
  const ServingReport b = run(spec);
  expect_metrics_identical(a.metrics, b.metrics);
  ASSERT_FALSE(a.day_curve.empty());
  ASSERT_EQ(a.day_curve.size(), b.day_curve.size());
  for (std::size_t i = 0; i < a.day_curve.size(); ++i) {
    EXPECT_EQ(a.day_curve[i].energy_j, b.day_curve[i].energy_j);
    EXPECT_EQ(a.day_curve[i].carbon_g, b.day_curve[i].carbon_g);
    EXPECT_EQ(a.day_curve[i].offered, b.day_curve[i].offered);
    EXPECT_EQ(a.day_curve[i].completed, b.day_curve[i].completed);
  }

  // The sweep engine reproduces the direct runs bit-for-bit on 1 and 2
  // worker threads, through the elastic-policy axis and the memo key.
  engine::ScenarioGrid grid;
  grid.tenant_mixes = {spec.tenant_mix};
  grid.architectures = {accel::Architecture::kSiph2p5D};
  grid.arrival_rates_rps = {spec.arrival_rps};
  grid.batch_policies = {spec.policy};
  grid.admission_policies = {spec.admission};
  grid.elastic_policies = {"static", to_string(spec.elastic)};
  grid.serving_defaults = spec;
  const core::SystemConfig base = core::default_system_config();
  const auto specs = grid.expand(base);
  ASSERT_EQ(specs.size(), 2u);
  ASSERT_EQ(specs[0].serving->elastic, ElasticSpec{});
  ASSERT_EQ(specs[1].serving->elastic, spec.elastic);
  EXPECT_NE(specs[0].key(), specs[1].key());
  EXPECT_EQ(specs[0].key().find("serve.elastic"), std::string::npos);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    engine::SweepOptions options;
    options.threads = threads;
    engine::SweepRunner runner(base, options);
    const auto results = runner.run(specs);
    ASSERT_EQ(results.size(), 2u);
    ASSERT_TRUE(results[1].serving.has_value());
    expect_metrics_identical(*results[1].serving, a.metrics);
  }
}

TEST(ElasticDeterminism, RackIsBitIdenticalAcrossWorkerThreadCounts) {
  cluster::ClusterConfig config;
  config.system = core::default_system_config();
  config.serving = full_elastic_spec();
  config.serving.elastic.faults.clear();
  config.serving.elastic.faults.push_back({0.08, 2, 1.0, 0});
  config.serving.elastic.faults.push_back({0.12, -1, 0.8, 1});
  config.cluster.packages = 2;
  config.threads = 1;
  const cluster::ClusterReport serial = cluster::simulate(config);
  config.threads = 2;
  const cluster::ClusterReport parallel = cluster::simulate(config);
  expect_metrics_identical(serial.metrics.rack, parallel.metrics.rack);
  ASSERT_FALSE(serial.day_curve.empty());
  ASSERT_EQ(serial.day_curve.size(), parallel.day_curve.size());
  for (std::size_t i = 0; i < serial.day_curve.size(); ++i) {
    EXPECT_EQ(serial.day_curve[i].energy_j, parallel.day_curve[i].energy_j);
  }
  // Package targeting: the chiplet death fired on package 0 only and the
  // derate on package 1 only — two injections total, not 2 + 2.
  EXPECT_EQ(serial.metrics.rack.faults_injected, 2u);
  EXPECT_GT(serial.metrics.rack.completed, 0u);
}

TEST(ElasticDeterminism, FaultAndRetryRngNeverPerturbArrivalsOrTokens) {
  // Spread-0 contract: the elastic machinery draws from its own seeded
  // streams, so arrivals (count, window endpoints) and token geometry
  // (decode_tps * makespan == completed * decode_mean) match the static
  // run exactly even under faults + gating + retry.
  ServingSpec spec = base_spec("TinyGPT", 200.0, 150);
  spec.policy = BatchPolicy::kContinuous;
  spec.prefill_tokens = 64;
  spec.decode_tokens = 16;
  spec.token_spread = 0.0;
  const ServingMetrics fixed = run(spec).metrics;

  ServingSpec elastic = spec;
  elastic.elastic.gate = true;
  elastic.elastic.gate_after_s = 1.0e-4;
  elastic.elastic.wake_s = 1.0e-5;
  elastic.elastic.retry_max_attempts = 2;
  elastic.elastic.retry_backoff_s = 1.0e-3;
  elastic.elastic.faults.push_back({0.2, -1, 0.9, -1});
  const ServingMetrics faulted = run(elastic).metrics;

  EXPECT_EQ(faulted.offered, fixed.offered);
  EXPECT_EQ(faulted.first_arrival_abs_s, fixed.first_arrival_abs_s);
  EXPECT_EQ(faulted.faults_injected, 1u);
  const auto generated = [](const ServingMetrics& m) {
    return m.decode_tps * m.makespan_s;
  };
  EXPECT_NEAR(generated(faulted),
              static_cast<double>(faulted.completed) * 16.0,
              1.0e-6 * generated(faulted));
  EXPECT_NEAR(generated(fixed), static_cast<double>(fixed.completed) * 16.0,
              1.0e-6 * generated(fixed));
}

TEST(ElasticAccounting, EveryRepartitionChargesExactlyOneResipiWindow) {
  // The repartition mirror of PipelineServing.HandoffsChargeOneRetune-
  // WindowEach: N re-partitions == N PCM-write windows serialized on the
  // interposer, never more (a swap is one bulk rewrite, not one write
  // per gateway).
  const ServingReport report = run(full_elastic_spec());
  const ServingMetrics& m = report.metrics;
  ASSERT_GT(m.repartitions, 0u);
  const double write_s =
      core::default_system_config().tech.photonic.pcm.write_time_s;
  EXPECT_DOUBLE_EQ(m.repartition_resipi_s,
                   static_cast<double>(m.repartitions) * write_s);
  // The rewrite energy landed in its own ledger category, as an integral
  // number of gateway rewrites (a swap that moves no ownership boundary
  // rewrites zero gateways — the time window is still charged).
  ASSERT_TRUE(report.ledger.charged(power::Category::kServingRepartition));
  const double write_j =
      core::default_system_config().tech.photonic.pcm.write_energy_j;
  const double rewrites =
      report.ledger.entry(power::Category::kServingRepartition)
          .dynamic_energy_j /
      write_j;
  EXPECT_DOUBLE_EQ(rewrites, std::round(rewrites));
}

TEST(ElasticGating, RemovesMeasuredIdleEnergyFromTheLedger) {
  // Both pipeline modes: a pipelined tenant goes idle when its last
  // in-flight batch completes, and stage 0 of its next batch wakes it.
  for (const PipelineMode mode :
       {PipelineMode::kBatchGranular, PipelineMode::kLayerGranular}) {
    SCOPED_TRACE(to_string(mode));
    ServingSpec spec = base_spec("LeNet5", 500.0, 300);  // sparse: idle gaps
    spec.sla_s = 0.01;  // roomier than the deadline wait: nothing sheds
    spec.pipeline = mode;
    const ServingReport fixed = run(spec);

    ServingSpec gated_spec = spec;
    gated_spec.elastic.gate = true;
    gated_spec.elastic.gate_after_s = 1.0e-4;
    gated_spec.elastic.wake_s = 1.0e-5;
    const ServingReport gated = run(gated_spec);

    EXPECT_GT(gated.metrics.gate_events, 0u);
    EXPECT_GT(gated.metrics.gated_idle_s, 0.0);
    EXPECT_EQ(gated.metrics.completed, fixed.metrics.completed);
    const auto idle = [](const ServingReport& r) {
      return r.ledger.entry(power::Category::kServingIdle).dynamic_energy_j;
    };
    EXPECT_LT(idle(gated), idle(fixed));
    EXPECT_LT(gated.metrics.energy_j, fixed.metrics.energy_j);
    // Every gated gap's dispatch pays the wake latency.
    EXPECT_GT(gated.metrics.mean_latency_s, fixed.metrics.mean_latency_s);
  }
}

TEST(ElasticFaults, DeadChipletDegradesButKeepsServing) {
  ServingSpec spec = base_spec("LeNet5+MobileNetV2", 3000.0, 400);
  const ServingMetrics fixed = run(spec).metrics;

  ServingSpec faulted_spec = spec;
  faulted_spec.elastic.faults.push_back({0.05, 2, 1.0, -1});
  const ServingMetrics faulted = run(faulted_spec).metrics;
  EXPECT_EQ(faulted.faults_injected, 1u);
  EXPECT_GE(faulted.repartitions, 1u);  // the fault forced a re-partition
  EXPECT_EQ(faulted.offered, fixed.offered);
  EXPECT_GT(faulted.completed, 0u);  // degraded, still serving
  EXPECT_EQ(faulted.offered,
            faulted.completed + faulted.shed + faulted.abandoned);
}

TEST(ElasticFaults, MicroringDriftDeratesServiceTime) {
  ServingSpec spec = base_spec("LeNet5", 2000.0, 300);
  spec.sla_s = 0.01;  // roomier than the deadline wait: nothing sheds
  const ServingMetrics fixed = run(spec).metrics;

  ServingSpec drifted_spec = spec;
  drifted_spec.elastic.faults.push_back({0.0, -1, 0.5, -1});  // 2x slower
  const ServingMetrics drifted = run(drifted_spec).metrics;
  EXPECT_EQ(drifted.faults_injected, 1u);
  EXPECT_EQ(drifted.offered, fixed.offered);
  EXPECT_GT(drifted.mean_latency_s, fixed.mean_latency_s);
  EXPECT_LT(drifted.goodput_rps, fixed.goodput_rps);
  EXPECT_GT(drifted.completed + drifted.shed + drifted.abandoned, 0u);
}

TEST(ElasticValidation, RejectsInvalidSpecsLoudly) {
  // Pool-elastic operation needs batch-granular execution on a
  // partitioned (non-monolithic) pool; malformed knobs fail fast.
  ServingSpec repart = base_spec("LeNet5+MobileNetV2", 1000.0, 10);
  repart.elastic.shift_threshold = 0.1;
  repart.pipeline = PipelineMode::kLayerGranular;
  EXPECT_THROW(run(repart), std::invalid_argument);
  repart.pipeline = PipelineMode::kBatchGranular;
  EXPECT_THROW(run(repart, accel::Architecture::kMonolithicCrossLight),
               std::invalid_argument);

  // A value outside the codec's range fails naming the policy, never as
  // a failed requirement.
  const std::string out_of_range =
      " is out of range: durations and fault times must be >= 0, tau and "
      "the carbon period > 0, the carbon amplitude in [0, 1], a fault "
      "derate in (0, 1] and chiplet and package ids >= -1";
  const auto error = [](const ServingSpec& spec) {
    try {
      (void)run(spec);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  ServingSpec bad_carbon = base_spec("LeNet5", 1000.0, 10);
  bad_carbon.elastic.carbon_amplitude = 1.5;
  EXPECT_THROW(run(bad_carbon), std::invalid_argument);
  EXPECT_EQ(error(bad_carbon),
            "elastic policy carbon=400:1.5:86400" + out_of_range);

  ServingSpec bad_derate = base_spec("LeNet5", 1000.0, 10);
  bad_derate.elastic.faults.push_back({0.1, -1, 0.0, -1});
  EXPECT_THROW(run(bad_derate), std::invalid_argument);
  EXPECT_EQ(error(bad_derate), "elastic policy " +
                                   to_string(bad_derate.elastic) +
                                   out_of_range);

  // simulate() applies the same rule to a config built by hand.
  ServingConfig bad_tau = make_serving_config(
      core::default_system_config(), accel::Architecture::kSiph2p5D,
      base_spec("LeNet5", 1000.0, 10));
  bad_tau.elastic.ema_tau_s = 0.0;
  try {
    (void)simulate(bad_tau);
    ADD_FAILURE() << "tau=0 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "elastic policy tau=0" + out_of_range);
  }

  ServingSpec bad_chiplet = base_spec("LeNet5", 1000.0, 10);
  bad_chiplet.elastic.faults.push_back({0.1, 100000, 1.0, -1});
  EXPECT_THROW(run(bad_chiplet), std::invalid_argument);
}

// A closed loop learns its span only while it runs, so a day-curve bucket
// too narrow for it is refused mid-run, naming the width.
TEST(ElasticValidation, RefusesAClosedLoopBucketTooNarrowForItsSpan) {
  ServingSpec closed = base_spec("LeNet5", 1000.0, 200);
  closed.source = ArrivalSource::kClosedLoop;
  closed.users = 4;
  closed.think_s = 1e-4;
  closed.elastic.curve_bucket_s = 1e-9;
  try {
    (void)run(closed);
    ADD_FAILURE() << "a 1e-9 s bucket was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(
                  "bucket=1e-09 is too narrow for a run that reached ", 0),
              0u)
        << e.what();
  }
  closed.elastic.curve_bucket_s = 1e-3;
  EXPECT_FALSE(run(closed).day_curve.empty());
}

}  // namespace
}  // namespace optiplet::serve
