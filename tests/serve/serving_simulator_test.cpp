#include "serve/serving_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "dnn/workload.hpp"
#include "dnn/zoo.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "serve/colocation.hpp"
#include "serve/service_time.hpp"

namespace optiplet::serve {
namespace {

/// The batch-1 service time of `model` serving alone, computed through the
/// exact partition + oracle path the simulator uses.
double isolated_service_s(const std::string& model,
                          const core::SystemConfig& base) {
  TenantDemand demand;
  demand.needed_kinds = needed_kinds(
      dnn::compute_workload(dnn::zoo::by_name(model), base.parameter_bits));
  const auto plan =
      partition_pool(base.compute_2p5d, {demand}, base.tech);
  core::SystemConfig config = base;
  config.compute_2p5d = plan.tenants[0].platform;
  ServiceTimeOracle oracle({{dnn::zoo::by_name(model), config, std::nullopt}},
                           accel::Architecture::kSiph2p5D);
  return oracle.batch_run(0, 1).latency_s;
}

ServingConfig single_tenant(const std::string& model, double rate_rps,
                            std::uint64_t requests, BatchPolicy policy,
                            unsigned max_batch = 8,
                            double max_wait_s = 2e-4) {
  ServingSpec spec;
  spec.tenant_mix = model;
  spec.arrival_rps = rate_rps;
  spec.requests = requests;
  spec.policy = policy;
  spec.max_batch = max_batch;
  spec.max_wait_s = max_wait_s;
  return make_serving_config(core::default_system_config(),
                             accel::Architecture::kSiph2p5D, spec);
}

TEST(ServingSimulator, CompletesEveryRequestAndIsDeterministic) {
  const auto config =
      single_tenant("LeNet5", 5000.0, 500, BatchPolicy::kDeadline);
  const auto a = simulate(config);
  const auto b = simulate(config);
  EXPECT_EQ(a.metrics.offered, 500u);
  EXPECT_EQ(a.metrics.completed, 500u);
  // Bit-identical across runs: seeded arrivals + deterministic events.
  EXPECT_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
  EXPECT_EQ(a.metrics.p99_s, b.metrics.p99_s);
  EXPECT_EQ(a.metrics.energy_j, b.metrics.energy_j);
  EXPECT_EQ(a.metrics.mean_latency_s, b.metrics.mean_latency_s);
}

TEST(ServingSimulator, PolicyLatencyOrderingAtLowLoad) {
  // At 10% utilization, waiting for a batch only hurts latency:
  //   no-batch < deadline-bounded (caps the wait) < fixed-size (waits for
  //   a full batch regardless).
  const core::SystemConfig base = core::default_system_config();
  const double service = isolated_service_s("LeNet5", base);
  const double rate = 0.1 / service;
  const auto none =
      simulate(single_tenant("LeNet5", rate, 400, BatchPolicy::kNone));
  const auto deadline =
      simulate(single_tenant("LeNet5", rate, 400, BatchPolicy::kDeadline));
  const auto fixed =
      simulate(single_tenant("LeNet5", rate, 400, BatchPolicy::kFixedSize));
  EXPECT_LT(none.metrics.mean_latency_s, deadline.metrics.mean_latency_s);
  EXPECT_LT(deadline.metrics.mean_latency_s, fixed.metrics.mean_latency_s);
  EXPECT_LT(none.metrics.p99_s, deadline.metrics.p99_s);
  EXPECT_LE(deadline.metrics.p99_s, fixed.metrics.p99_s);
}

TEST(ServingSimulator, BatchingWinsAtSaturatingLoad) {
  // At 3x the no-batch capacity, batching amortizes weight traffic and
  // per-layer overheads: higher sustained throughput and a far shorter
  // tail than the saturated no-batch server.
  const core::SystemConfig base = core::default_system_config();
  const double service = isolated_service_s("LeNet5", base);
  const double rate = 3.0 / service;
  const auto none =
      simulate(single_tenant("LeNet5", rate, 1200, BatchPolicy::kNone));
  const auto fixed =
      simulate(single_tenant("LeNet5", rate, 1200, BatchPolicy::kFixedSize));
  EXPECT_GT(fixed.metrics.throughput_rps,
            1.5 * none.metrics.throughput_rps);
  EXPECT_GT(none.metrics.p99_s, fixed.metrics.p99_s);
  // Amortization shows in energy per request too.
  EXPECT_LT(fixed.metrics.energy_per_request_j,
            none.metrics.energy_per_request_j);
  EXPECT_GT(fixed.metrics.mean_batch, 2.0);
}

TEST(ServingSimulator, MD1MeanWaitSanityBand) {
  // Single tenant, no batching, deterministic service D, Poisson
  // arrivals: an M/D/1 queue. At utilization rho the mean queueing wait
  // is Wq = rho*D / (2*(1-rho)); the simulated mean must land in a band
  // around the closed form at low utilization.
  const core::SystemConfig base = core::default_system_config();
  const double service = isolated_service_s("LeNet5", base);
  const double rho = 0.3;
  const auto report = simulate(
      single_tenant("LeNet5", rho / service, 30000, BatchPolicy::kNone));
  EXPECT_EQ(report.metrics.completed, 30000u);
  const double wq_theory = rho * service / (2.0 * (1.0 - rho));
  const double wq_sim = report.metrics.mean_latency_s - service;
  EXPECT_GT(wq_sim, 0.0);
  EXPECT_NEAR(wq_sim, wq_theory, 0.2 * wq_theory);
}

TEST(ServingSimulator, ServiceTimeCacheCollapsesRepeatedBatches) {
  // Policy none: every dispatch asks for batch 1; the SLA derivation
  // pre-warms that same entry, so the whole run is 1 miss + N hits.
  const auto none =
      simulate(single_tenant("LeNet5", 5000.0, 300, BatchPolicy::kNone));
  EXPECT_EQ(none.metrics.service_cache_misses, 1u);
  EXPECT_EQ(none.metrics.service_cache_hits, 300u);

  // Fixed-size 4 over 300 requests: batch sizes {1 (SLA), 4} only.
  const auto fixed = simulate(
      single_tenant("LeNet5", 5000.0, 300, BatchPolicy::kFixedSize, 4));
  EXPECT_EQ(fixed.metrics.service_cache_misses, 2u);
  EXPECT_EQ(fixed.metrics.service_cache_hits, 74u);  // 75 batches - 1 miss
}

TEST(ServingSimulator, TraceReplayFidelity) {
  // Widely spaced arrivals at exact times: with no queueing, every
  // request's latency is exactly the batch-1 service time and the offered
  // counts match the per-tenant trace rows.
  const std::string path = ::testing::TempDir() + "serving_trace_test.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "arrival_s,tenant\n";
    out << "0.00,LeNet5\n0.01,LeNet5\n0.02,LeNet5\n";
    out << "0.005,VGG16\n0.015,VGG16\n";
  }
  ServingSpec spec;
  spec.tenant_mix = "LeNet5+VGG16";
  spec.policy = BatchPolicy::kNone;
  spec.trace_path = path;
  const auto config = make_serving_config(
      core::default_system_config(), accel::Architecture::kSiph2p5D, spec);
  ASSERT_EQ(config.tenants.size(), 2u);
  EXPECT_EQ(config.tenants[0].trace_arrivals.size(), 3u);
  EXPECT_EQ(config.tenants[1].trace_arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(config.tenants[1].trace_arrivals[0], 0.005);

  const auto report = simulate(config);
  std::remove(path.c_str());
  EXPECT_EQ(report.metrics.offered, 5u);
  EXPECT_EQ(report.metrics.completed, 5u);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].completed, 3u);
  EXPECT_EQ(report.tenants[1].completed, 2u);
  // No queueing: per-tenant latency == isolated service time, exactly.
  const core::SystemConfig base = core::default_system_config();
  // VGG16 and LeNet5 contend for the dense group, so service times come
  // from the *co-located* partition, not the isolated one; just check the
  // spread is zero (deterministic service, no waits).
  for (const auto& tenant : report.tenants) {
    EXPECT_DOUBLE_EQ(tenant.p99_s, tenant.p50_s);
    EXPECT_DOUBLE_EQ(tenant.mean_latency_s, tenant.p50_s);
    EXPECT_GT(tenant.p50_s, 0.0);
  }
  (void)base;
}

TEST(ServingSimulator, MakespanStartsAtFirstArrivalForOffsetTraces) {
  // A replayed trace beginning at an arbitrary absolute time must not
  // count the lead-in as serving time (it would deflate throughput and
  // charge phantom idle energy).
  const std::string path =
      ::testing::TempDir() + "serving_offset_trace_test.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "arrival_s\n10.000\n10.002\n10.004\n";
  }
  ServingSpec spec;
  spec.tenant_mix = "LeNet5";
  spec.policy = BatchPolicy::kNone;
  spec.trace_path = path;
  const auto report = simulate(make_serving_config(
      core::default_system_config(), accel::Architecture::kSiph2p5D, spec));
  std::remove(path.c_str());
  EXPECT_EQ(report.metrics.completed, 3u);
  EXPECT_LT(report.metrics.makespan_s, 0.1);
  EXPECT_GT(report.metrics.throughput_rps, 100.0);
}

TEST(ServingSimulator, DuplicateModelTenantsGetAddressableNames) {
  ServingSpec spec;
  spec.tenant_mix = "LeNet5+LeNet5+VGG16";
  const auto config = make_serving_config(
      core::default_system_config(), accel::Architecture::kSiph2p5D, spec);
  ASSERT_EQ(config.tenants.size(), 3u);
  // Every duplicate gets its mix index; unique models keep the bare name,
  // so trace `tenant` labels can address each copy unambiguously.
  EXPECT_EQ(config.tenants[0].name, "LeNet5#0");
  EXPECT_EQ(config.tenants[1].name, "LeNet5#1");
  EXPECT_EQ(config.tenants[2].name, "VGG16");
}

TEST(ServingSimulator, TraceFeedingNoTenantFailsLoud) {
  // Rows labeled with the bare model name cannot address a duplicate mix
  // (the tenants are "LeNet5#0"/"LeNet5#1"): instead of silently serving
  // nothing — or worse, falling back to Poisson under a trace-shaped memo
  // key — configuration must fail with the expected names in the message.
  const std::string path =
      ::testing::TempDir() + "serving_unmatched_trace_test.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "arrival_s,tenant\n1e-3,LeNet5\n2e-3,LeNet5\n";
  }
  ServingSpec spec;
  spec.tenant_mix = "LeNet5+LeNet5";
  spec.trace_path = path;
  try {
    (void)make_serving_config(core::default_system_config(),
                              accel::Architecture::kSiph2p5D, spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("LeNet5#0"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("LeNet5#1"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ServingSimulator, TraceTenantsNeverFallBackToPoisson) {
  // A tenant the trace does not feed serves nothing — replay is
  // authoritative, so partial traces must not be topped up with
  // synthetic arrivals.
  const std::string path =
      ::testing::TempDir() + "serving_partial_trace_test.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "arrival_s,tenant\n1e-3,LeNet5\n2e-3,LeNet5\n";
  }
  ServingSpec spec;
  spec.tenant_mix = "LeNet5+VGG16";
  spec.trace_path = path;
  spec.requests = 500;  // ignored in replay mode
  const auto report = simulate(make_serving_config(
      core::default_system_config(), accel::Architecture::kSiph2p5D, spec));
  std::remove(path.c_str());
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].completed, 2u);
  EXPECT_EQ(report.tenants[1].offered, 0u);
  EXPECT_EQ(report.tenants[1].completed, 0u);
  EXPECT_EQ(report.metrics.completed, 2u);
}

TEST(ServingScenarioKey, TraceModeIgnoresRateRequestsAndSeed) {
  // With a trace set, arrivals come entirely from the file: specs that
  // differ only in the ignored Poisson knobs must share one memo key.
  engine::ScenarioSpec a;
  a.model = "LeNet5";
  a.serving = ServingSpec{};
  a.serving->tenant_mix = "LeNet5";
  a.serving->trace_path = "arrivals.csv";
  engine::ScenarioSpec b = a;
  b.serving->arrival_rps = 99999.0;
  b.serving->requests = 7;
  b.serving->seed = 123;
  EXPECT_EQ(a.key(), b.key());
  // Without a trace those knobs define the experiment and must split it.
  engine::ScenarioSpec c = a;
  c.serving->trace_path.clear();
  engine::ScenarioSpec d = c;
  d.serving->arrival_rps += 1.0;
  EXPECT_NE(c.key(), d.key());
}

/// True when [a0,a1) and [b0,b1) overlap.
bool overlaps(double a0, double a1, double b0, double b1) {
  return a0 < b1 && b0 < a1;
}

TEST(ServingSimulator, ColocationNeverDoubleBooksChiplets) {
  // MobileNetV2 + ResNet50: disjoint ownership except dense/conv3 splits;
  // conv7/conv5 are ResNet-exclusive. Concurrent batches must never share
  // a chiplet, and cross-tenant ReSiPI windows must be serialized.
  ServingSpec spec;
  spec.tenant_mix = "MobileNetV2+ResNet50";
  spec.arrival_rps = 800.0;
  spec.requests = 120;
  spec.policy = BatchPolicy::kNone;
  auto config = make_serving_config(core::default_system_config(),
                                    accel::Architecture::kSiph2p5D, spec);
  config.record_batches = true;
  const auto report = simulate(config);
  EXPECT_EQ(report.metrics.completed, 120u);
  ASSERT_FALSE(report.batches.empty());

  for (std::size_t i = 0; i < report.batches.size(); ++i) {
    for (std::size_t j = i + 1; j < report.batches.size(); ++j) {
      const auto& a = report.batches[i];
      const auto& b = report.batches[j];
      if (a.tenant == b.tenant ||
          !overlaps(a.start_s, a.end_s, b.start_s, b.end_s)) {
        continue;
      }
      // Concurrent batches of different tenants: disjoint chiplets...
      for (const std::size_t c : a.chiplets) {
        EXPECT_EQ(std::find(b.chiplets.begin(), b.chiplets.end(), c),
                  b.chiplets.end())
            << "chiplet " << c << " double-booked";
      }
      // ...and non-overlapping reconfiguration windows.
      if (a.resipi_end_s > a.resipi_start_s &&
          b.resipi_end_s > b.resipi_start_s) {
        EXPECT_FALSE(overlaps(a.resipi_start_s, a.resipi_end_s,
                              b.resipi_start_s, b.resipi_end_s))
            << "cross-tenant ReSiPI windows overlap";
      }
    }
  }
  // Both models reconfigure on every batch, and the load keeps both
  // executors busy at once: serialization must actually have happened.
  EXPECT_GT(report.metrics.resipi_conflicts, 0u);
  EXPECT_GT(report.metrics.resipi_wait_s, 0.0);
}

TEST(ServingSimulator, SharedScarceGroupSerializesTenants) {
  // ResNet50 + DenseNet121 both need the single 7x7 chiplet: every batch
  // locks the shared group, so no two batches of different tenants may
  // overlap at all.
  ServingSpec spec;
  spec.tenant_mix = "ResNet50+DenseNet121";
  spec.arrival_rps = 300.0;
  spec.requests = 40;
  spec.policy = BatchPolicy::kNone;
  auto config = make_serving_config(core::default_system_config(),
                                    accel::Architecture::kSiph2p5D, spec);
  config.record_batches = true;
  const auto report = simulate(config);
  EXPECT_EQ(report.metrics.completed, 40u);
  double shared_wait = 0.0;
  for (const auto& tenant : report.tenants) {
    shared_wait += tenant.shared_wait_s;
  }
  EXPECT_GT(shared_wait, 0.0);  // contention actually exercised
  for (std::size_t i = 0; i < report.batches.size(); ++i) {
    for (std::size_t j = i + 1; j < report.batches.size(); ++j) {
      const auto& a = report.batches[i];
      const auto& b = report.batches[j];
      if (a.tenant != b.tenant) {
        EXPECT_FALSE(overlaps(a.start_s, a.end_s, b.start_s, b.end_s))
            << "shared-group batches overlap across tenants";
      }
    }
  }
}

TEST(ServingSimulator, SweepRunnerServesServingGridsInParallel) {
  engine::ScenarioGrid grid;
  grid.tenant_mixes = {"LeNet5"};
  grid.architectures = {accel::Architecture::kSiph2p5D};
  grid.arrival_rates_rps = {2000.0, 20000.0};
  grid.batch_policies = {BatchPolicy::kNone, BatchPolicy::kFixedSize};
  grid.serving_defaults.requests = 200;

  const core::SystemConfig base = core::default_system_config();
  const auto specs = grid.expand(base);
  ASSERT_EQ(specs.size(), 4u);

  engine::SweepOptions options;
  options.threads = 2;
  engine::SweepRunner runner(base, options);
  const auto results = runner.run(specs);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].serving.has_value());
    // Parallel evaluation reproduces the serial reference bit-for-bit.
    const auto reference =
        engine::SweepRunner::evaluate_outcome(base, specs[i]);
    ASSERT_TRUE(reference.serving.has_value());
    EXPECT_EQ(results[i].serving->p99_s, reference.serving->p99_s);
    EXPECT_EQ(results[i].serving->throughput_rps,
              reference.serving->throughput_rps);
    EXPECT_EQ(results[i].serving->energy_per_request_j,
              reference.serving->energy_per_request_j);
  }
  // Serving keys are distinct per (rate, policy) and cache-stable.
  const auto again = runner.run(specs);
  EXPECT_EQ(runner.cache_hits(), 4u);
  EXPECT_TRUE(again[0].from_cache);
}

TEST(ServingSimulator, MonolithicTenantsSerializeOnTheDie) {
  ServingSpec spec;
  spec.tenant_mix = "LeNet5+LeNet5";
  spec.arrival_rps = 2000.0;
  spec.requests = 60;
  spec.policy = BatchPolicy::kNone;
  auto config =
      make_serving_config(core::default_system_config(),
                          accel::Architecture::kMonolithicCrossLight, spec);
  config.record_batches = true;
  const auto report = simulate(config);
  EXPECT_EQ(report.metrics.completed, 60u);
  for (std::size_t i = 0; i < report.batches.size(); ++i) {
    for (std::size_t j = i + 1; j < report.batches.size(); ++j) {
      const auto& a = report.batches[i];
      const auto& b = report.batches[j];
      EXPECT_FALSE(overlaps(a.start_s, a.end_s, b.start_s, b.end_s))
          << "monolithic die executed two batches at once";
    }
  }
}

}  // namespace
}  // namespace optiplet::serve
