#include <gtest/gtest.h>

#include <algorithm>

#include "dnn/workload.hpp"
#include "dnn/zoo.hpp"
#include "engine/result_store.hpp"
#include "engine/scenario.hpp"
#include "serve/colocation.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"

namespace optiplet::serve {
namespace {

/// The batch-1 service time of `model` serving alone, computed through the
/// exact partition + oracle path the simulator uses.
double isolated_service_s(const std::string& model,
                          const core::SystemConfig& base) {
  TenantDemand demand;
  demand.needed_kinds = needed_kinds(
      dnn::compute_workload(dnn::zoo::by_name(model), base.parameter_bits));
  const auto plan = partition_pool(base.compute_2p5d, {demand}, base.tech);
  core::SystemConfig config = base;
  config.compute_2p5d = plan.tenants[0].platform;
  ServiceTimeOracle oracle({{dnn::zoo::by_name(model), config, std::nullopt}},
                           accel::Architecture::kSiph2p5D);
  return oracle.batch_run(0, 1).latency_s;
}

ServingConfig closed_tenant(const std::string& model, unsigned users,
                            double think_s, std::uint64_t requests,
                            BatchPolicy policy = BatchPolicy::kNone) {
  ServingSpec spec;
  spec.tenant_mix = model;
  spec.source = ArrivalSource::kClosedLoop;
  spec.users = users;
  spec.think_s = think_s;
  spec.requests = requests;
  spec.policy = policy;
  return make_serving_config(core::default_system_config(),
                             accel::Architecture::kSiph2p5D, spec);
}

TEST(ClosedLoop, DeterministicAndCompletesTheBudget) {
  const core::SystemConfig base = core::default_system_config();
  const double service = isolated_service_s("LeNet5", base);
  const auto config = closed_tenant("LeNet5", 8, 20.0 * service, 400);
  const auto a = simulate(config);
  const auto b = simulate(config);
  // The budget is spent exactly: every issued request arrives and
  // completes (no shedding under the admit-all default).
  EXPECT_EQ(a.metrics.offered, 400u);
  EXPECT_EQ(a.metrics.completed, 400u);
  EXPECT_EQ(a.metrics.shed, 0u);
  // Bit-identical across runs: seeded think draws + deterministic events.
  EXPECT_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
  EXPECT_EQ(a.metrics.p99_s, b.metrics.p99_s);
  EXPECT_EQ(a.metrics.energy_j, b.metrics.energy_j);
  EXPECT_EQ(a.metrics.throughput_rps, b.metrics.throughput_rps);
}

TEST(ClosedLoop, OfferedLoadFlattensAtSaturation) {
  // The self-throttling property the source exists for: with a client
  // pool whose think-time bound is ~8x the executor's capacity, the
  // measured offered rate flattens at capacity (each user waits for its
  // response before reissuing) and latency stays bounded by the pool
  // size — while the equivalent open-loop stream at the same nominal
  // load blows its queue up for the whole run.
  const core::SystemConfig base = core::default_system_config();
  const double service = isolated_service_s("LeNet5", base);
  const double capacity_rps = 1.0 / service;
  const unsigned users = 32;
  const double think_s = 4.0 * service;  // bound = 32/(4D) = 8x capacity
  const double bound_rps = static_cast<double>(users) / think_s;
  ASSERT_GT(bound_rps, 4.0 * capacity_rps);

  const auto closed =
      simulate(closed_tenant("LeNet5", users, think_s, 1200));
  EXPECT_EQ(closed.metrics.completed, 1200u);
  const double offered_rate =
      static_cast<double>(closed.metrics.offered) /
      closed.metrics.makespan_s;
  // Offered load flattens at the service capacity, far below the
  // client-pool bound.
  EXPECT_LT(offered_rate, 1.05 * capacity_rps);
  EXPECT_LT(closed.metrics.throughput_rps, 1.05 * capacity_rps);
  // Latency is bounded by the pool: at most `users` requests can be in
  // the system, so no request waits behind more than the whole pool.
  EXPECT_LT(closed.metrics.max_latency_s,
            1.5 * static_cast<double>(users) * service);

  ServingSpec open_spec;
  open_spec.tenant_mix = "LeNet5";
  open_spec.arrival_rps = bound_rps;  // same nominal load, open loop
  open_spec.requests = 1200;
  open_spec.policy = BatchPolicy::kNone;
  const auto open = simulate(make_serving_config(
      base, accel::Architecture::kSiph2p5D, open_spec));
  // The open-loop queue grows for the whole run: its tail dwarfs the
  // self-throttled pool's.
  EXPECT_GT(open.metrics.p99_s, 3.0 * closed.metrics.p99_s);
  EXPECT_GT(open.metrics.mean_latency_s, closed.metrics.mean_latency_s);
}

TEST(ClosedLoop, ThroughputRespectsTheThinkTimeBound) {
  // Think-dominated regime: each user's cycle is think + response, so
  // throughput approaches users / think_s. The bound holds in
  // expectation only — the realized sum of ~150 exponential thinks per
  // user wobbles by a few percent — so it gets sampling slack; a
  // self-throttling regression would overshoot by the pool factor.
  const core::SystemConfig base = core::default_system_config();
  const double service = isolated_service_s("LeNet5", base);
  const unsigned users = 4;
  const double think_s = 100.0 * service;
  const auto report =
      simulate(closed_tenant("LeNet5", users, think_s, 600));
  const double bound_rps = static_cast<double>(users) / think_s;
  EXPECT_EQ(report.metrics.completed, 600u);
  EXPECT_LE(report.metrics.throughput_rps, bound_rps * 1.10);
  EXPECT_GT(report.metrics.throughput_rps, 0.8 * bound_rps);
  // Light load: requests barely queue, so latency sits near the service
  // time.
  EXPECT_LT(report.metrics.p50_s, 2.0 * service);
}

TEST(ClosedLoop, ComposesWithBatchingAndPipelining) {
  // The client pool rides the same queue/dispatch machinery as open-loop
  // arrivals, so batching policies and layer-granular execution compose.
  const core::SystemConfig base = core::default_system_config();
  const double service = isolated_service_s("LeNet5", base);
  ServingSpec spec;
  spec.tenant_mix = "LeNet5";
  spec.source = ArrivalSource::kClosedLoop;
  spec.users = 24;
  spec.think_s = 2.0 * service;
  spec.requests = 500;
  spec.policy = BatchPolicy::kDeadline;
  spec.max_batch = 8;
  spec.max_wait_s = 4.0 * service;
  spec.pipeline = PipelineMode::kLayerGranular;
  const auto report = simulate(make_serving_config(
      base, accel::Architecture::kSiph2p5D, spec));
  EXPECT_EQ(report.metrics.offered, 500u);
  EXPECT_EQ(report.metrics.completed, 500u);
  EXPECT_GT(report.metrics.mean_batch, 1.0);  // batching actually engaged
}

TEST(ClosedLoop, RejectsTraceReplayAndBadKnobs) {
  ServingSpec spec;
  spec.tenant_mix = "LeNet5";
  spec.source = ArrivalSource::kClosedLoop;
  spec.trace_path = "arrivals.csv";
  EXPECT_THROW((void)make_serving_config(core::default_system_config(),
                                         accel::Architecture::kSiph2p5D,
                                         spec),
               std::invalid_argument);
  ServingConfig config = closed_tenant("LeNet5", 4, 1e-3, 100);
  config.tenants[0].users = 0;
  EXPECT_THROW((void)simulate(config), std::invalid_argument);
  config.tenants[0].users = 4;
  config.tenants[0].think_s = -1.0;
  EXPECT_THROW((void)simulate(config), std::invalid_argument);
}

TEST(ClosedLoopScenarioKey, ClosedLoopKnobsDefineTheExperiment) {
  engine::ScenarioSpec open;
  open.model = "LeNet5";
  open.serving = ServingSpec{};
  open.serving->tenant_mix = "LeNet5";
  engine::ScenarioSpec closed = open;
  closed.serving->source = ArrivalSource::kClosedLoop;
  EXPECT_NE(open.key(), closed.key());

  // Users and think time split the key; the ignored open-loop rate must
  // not.
  engine::ScenarioSpec a = closed;
  engine::ScenarioSpec b = closed;
  b.serving->users += 1;
  EXPECT_NE(a.key(), b.key());
  b = closed;
  b.serving->think_s *= 2.0;
  EXPECT_NE(a.key(), b.key());
  b = closed;
  b.serving->arrival_rps += 1000.0;
  EXPECT_EQ(a.key(), b.key());
  // Open-loop specs ignore the closed-loop knobs symmetrically.
  engine::ScenarioSpec c = open;
  c.serving->users += 9;
  c.serving->think_s *= 3.0;
  EXPECT_EQ(open.key(), c.key());

  // Trace mode keeps the source in the key: trace + closed loop is
  // rejected at evaluation, so the invalid spec must never ride a valid
  // spec's cached result.
  engine::ScenarioSpec t1 = open;
  t1.serving->trace_path = "arrivals.csv";
  engine::ScenarioSpec t2 = t1;
  t2.serving->source = ArrivalSource::kClosedLoop;
  EXPECT_NE(t1.key(), t2.key());
}

TEST(ClosedLoopGrid, UserAxisExpandsAndReportsCsvColumns) {
  engine::ScenarioGrid grid;
  grid.tenant_mixes = {"LeNet5"};
  grid.architectures = {accel::Architecture::kSiph2p5D};
  grid.arrival_sources = {ArrivalSource::kClosedLoop};
  grid.user_counts = {2, 8};
  grid.serving_defaults.think_s = 1e-3;
  grid.serving_defaults.requests = 60;

  const core::SystemConfig base = core::default_system_config();
  const auto specs = grid.expand(base);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(grid.raw_size(), 2u);
  for (const auto& spec : specs) {
    ASSERT_TRUE(spec.serving.has_value());
    EXPECT_EQ(spec.serving->source, ArrivalSource::kClosedLoop);
  }
  EXPECT_EQ(specs[0].serving->users, 2u);
  EXPECT_EQ(specs[1].serving->users, 8u);

  engine::SweepRunner runner(base);
  const auto results = runner.run(specs);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].serving.has_value());
  EXPECT_EQ(results[0].serving->completed, 60u);

  const auto header = engine::ResultStore::csv_header();
  const auto column = [&header](const char* name) {
    return std::find(header.begin(), header.end(), name) - header.begin();
  };
  const auto row = engine::ResultStore::csv_row(results[0]);
  ASSERT_EQ(row.size(), header.size());
  EXPECT_EQ(row[static_cast<std::size_t>(column("arrival_source"))],
            "closed");
  EXPECT_EQ(row[static_cast<std::size_t>(column("users"))], "2");
  EXPECT_EQ(row[static_cast<std::size_t>(column("shed"))], "0");
}

}  // namespace
}  // namespace optiplet::serve
