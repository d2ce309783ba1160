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

/// The batch-`batch` service time of `model` serving alone, computed
/// through the exact partition + oracle path the simulator uses.
double isolated_service_s(const std::string& model,
                          const core::SystemConfig& base,
                          unsigned batch = 1) {
  TenantDemand demand;
  demand.needed_kinds = needed_kinds(
      dnn::compute_workload(dnn::zoo::by_name(model), base.parameter_bits));
  const auto plan = partition_pool(base.compute_2p5d, {demand}, base.tech);
  core::SystemConfig config = base;
  config.compute_2p5d = plan.tenants[0].platform;
  ServiceTimeOracle oracle({{dnn::zoo::by_name(model), config, std::nullopt}},
                           accel::Architecture::kSiph2p5D);
  return oracle.batch_run(0, batch).latency_s;
}

ServingConfig overloaded(const std::string& model, double overload,
                         AdmissionPolicy admission,
                         PipelineMode pipeline = PipelineMode::kBatchGranular,
                         std::uint64_t requests = 800) {
  const core::SystemConfig base = core::default_system_config();
  ServingSpec spec;
  spec.tenant_mix = model;
  spec.arrival_rps = overload / isolated_service_s(model, base);
  spec.requests = requests;
  spec.policy = BatchPolicy::kNone;
  spec.admission = admission;
  spec.pipeline = pipeline;
  return make_serving_config(base, accel::Architecture::kSiph2p5D, spec);
}

TEST(Admission, ShedAccountingIsExactInBothPipelineModes) {
  for (const PipelineMode pipeline :
       {PipelineMode::kBatchGranular, PipelineMode::kLayerGranular}) {
    // Layer-granular pipelining raises the capacity knee by the pipeline
    // depth, so it needs a deeper overload before the SLA becomes
    // unattainable and the shedder fires.
    const double overload =
        pipeline == PipelineMode::kBatchGranular ? 1.5 : 8.0;
    const auto report = simulate(
        overloaded("LeNet5", overload, AdmissionPolicy::kSlaShed, pipeline));
    const auto& m = report.metrics;
    // Every offered request is either completed or shed, exactly.
    EXPECT_EQ(m.offered, 800u);
    EXPECT_EQ(m.offered, m.completed + m.shed);
    EXPECT_GT(m.shed, 0u);  // 1.5x overload must actually shed
    EXPECT_LT(m.shed, m.offered);
    for (const auto& tenant : report.tenants) {
      EXPECT_EQ(tenant.offered, tenant.completed + tenant.shed);
    }
    // Goodput counts only SLA-met completions.
    EXPECT_LE(m.goodput_rps, m.throughput_rps * (1.0 + 1e-9));
    EXPECT_GT(m.goodput_rps, 0.0);
    // goodput * makespan recovers the SLA-met completion count.
    const double sla_met =
        static_cast<double>(m.completed) * (1.0 - m.sla_violation_rate);
    EXPECT_NEAR(m.goodput_rps * m.makespan_s, sla_met, 0.5);
  }
}

TEST(Admission, SheddingBoundsTheTailPastSaturation) {
  const auto all =
      simulate(overloaded("LeNet5", 1.5, AdmissionPolicy::kAdmitAll));
  const auto shed =
      simulate(overloaded("LeNet5", 1.5, AdmissionPolicy::kSlaShed));
  // Admit-all at 1.5x: the queue grows for the whole run, the tail
  // explodes, and most completions blow the SLA. Shedding keeps the
  // admitted queue within the deadline-feasible backlog.
  EXPECT_EQ(all.metrics.shed, 0u);
  EXPECT_GT(all.metrics.sla_violation_rate, 0.5);
  EXPECT_LT(shed.metrics.p99_s, 0.5 * all.metrics.p99_s);
  EXPECT_LT(shed.metrics.sla_violation_rate,
            0.2 * all.metrics.sla_violation_rate);
  EXPECT_GT(shed.metrics.goodput_rps, 2.0 * all.metrics.goodput_rps);
}

TEST(Admission, ShedIsInertBelowTheKnee) {
  // At 40% utilization every completion makes the (10x service) SLA with
  // room to spare: the shedder must not fire, and the run must be
  // bit-identical to admit-all.
  const auto all =
      simulate(overloaded("LeNet5", 0.4, AdmissionPolicy::kAdmitAll));
  const auto shed =
      simulate(overloaded("LeNet5", 0.4, AdmissionPolicy::kSlaShed));
  EXPECT_EQ(shed.metrics.shed, 0u);
  EXPECT_EQ(shed.metrics.completed, all.metrics.completed);
  EXPECT_EQ(shed.metrics.p99_s, all.metrics.p99_s);
  EXPECT_EQ(shed.metrics.makespan_s, all.metrics.makespan_s);
  EXPECT_EQ(shed.metrics.energy_j, all.metrics.energy_j);
}

TEST(Admission, DeadlineBatchingDoesNotFalseShedBelowTheKnee) {
  // Regression for the admission estimate's batching blind spot: the old
  // backlog formula priced every would-be admission at the *full*
  // max_batch service time, so a deadline-batched tenant whose SLA sits
  // between the batch-1 and batch-8 service times (ResNet50's batch-8
  // run costs ~6.7x its batch-1 run) shed its entire load even at ~30%
  // utilization. The estimate now models the deadline policy's fill
  // wait and the batch size it actually dispatches, so below the knee
  // nothing is shed and the run is bit-identical to admit-all.
  const core::SystemConfig base = core::default_system_config();
  const double service = isolated_service_s("ResNet50", base);
  ServingSpec spec;
  spec.tenant_mix = "ResNet50";
  spec.arrival_rps = 0.3 / service;
  spec.requests = 300;
  spec.policy = BatchPolicy::kDeadline;
  spec.max_batch = 8;
  spec.max_wait_s = 0.5 * service;
  spec.sla_s = 5.0 * service;
  // Precondition making the old estimator's verdict unambiguous: a full
  // batch-8 dispatch really does blow this SLA on its own.
  ASSERT_GT(isolated_service_s("ResNet50", base, 8), spec.sla_s);

  spec.admission = AdmissionPolicy::kSlaShed;
  const auto shed = simulate(
      make_serving_config(base, accel::Architecture::kSiph2p5D, spec));
  EXPECT_EQ(shed.metrics.shed, 0u);
  EXPECT_EQ(shed.metrics.completed, 300u);
  // Nearly everything makes the SLA below the knee; a blanket shed (or a
  // blanket violation) trips this hard.
  EXPECT_LT(shed.metrics.sla_violation_rate, 0.05);

  spec.admission = AdmissionPolicy::kAdmitAll;
  const auto all = simulate(
      make_serving_config(base, accel::Architecture::kSiph2p5D, spec));
  EXPECT_EQ(shed.metrics.p99_s, all.metrics.p99_s);
  EXPECT_EQ(shed.metrics.makespan_s, all.metrics.makespan_s);
  EXPECT_EQ(shed.metrics.energy_j, all.metrics.energy_j);
}

TEST(Admission, PriorityClassOrdersSharedGroupGrants) {
  // ResNet50 + DenseNet121 serialize on the single 7x7 chiplet. With
  // ResNet50 in class 0 and DenseNet121 in class 1, every contended
  // grant goes to ResNet50 first, so the low-priority tenant absorbs the
  // serialization wait.
  const core::SystemConfig base = core::default_system_config();
  ServingSpec spec;
  spec.tenant_mix = "ResNet50+DenseNet121";
  spec.priority_mix = "0+1";
  spec.arrival_rps = 600.0;  // past the fully-serialized mix capacity
  spec.requests = 80;
  spec.policy = BatchPolicy::kNone;
  const auto report = simulate(
      make_serving_config(base, accel::Architecture::kSiph2p5D, spec));
  ASSERT_EQ(report.tenants.size(), 2u);
  const TenantReport& hi = report.tenants[0];
  const TenantReport& lo = report.tenants[1];
  EXPECT_EQ(hi.priority, 0u);
  EXPECT_EQ(lo.priority, 1u);
  EXPECT_GT(lo.shared_wait_s, hi.shared_wait_s);

  // Per-class aggregates: sorted ascending, counts partition the run.
  ASSERT_EQ(report.classes.size(), 2u);
  EXPECT_EQ(report.classes[0].priority, 0u);
  EXPECT_EQ(report.classes[1].priority, 1u);
  EXPECT_EQ(report.classes[0].offered + report.classes[1].offered,
            report.metrics.offered);
  EXPECT_EQ(report.classes[0].completed + report.classes[1].completed,
            report.metrics.completed);
  EXPECT_EQ(report.metrics.p99_hi_s, report.classes[0].p99_s);
  EXPECT_EQ(report.metrics.p99_lo_s, report.classes[1].p99_s);
  // The important class gets the better tail.
  EXPECT_LT(report.metrics.p99_hi_s, report.metrics.p99_lo_s);
}

TEST(Admission, ClassAwareShedEstimateSparesHighPriorityColocation) {
  // Regression for the admission estimate's priority blind spot: the old
  // backlog formula kept a single "shared pool free at" horizon, so a
  // saturated low-priority tenant's committed shared-serial windows were
  // charged against every high-priority admission too — and a class-0
  // stream running well below its own knee shed alongside its noisy
  // neighbor. The estimate now tracks the committed horizon per priority
  // class and charges an admission only with windows of classes at least
  // as important as its own, matching the grant order the executor
  // actually enforces. The below-knee class-0 stream must sail through
  // unshed while the class-1 stream keeps shedding.
  const core::SystemConfig base = core::default_system_config();
  ServingSpec spec;
  spec.tenant_mix = "ResNet50+DenseNet121";
  spec.priority_mix = "0+1";
  spec.policy = BatchPolicy::kNone;
  spec.admission = AdmissionPolicy::kSlaShed;
  spec.requests = 360;
  auto config = make_serving_config(base, accel::Architecture::kSiph2p5D, spec);
  ASSERT_EQ(config.tenants.size(), 2u);
  // Per-tenant rates (the spec splits one aggregate evenly): the class-0
  // stream idles far below its partitioned capacity; the class-1 stream
  // is pushed well past its own knee so the shedder must stay busy.
  config.tenants[0].arrival_rps =
      0.15 / isolated_service_s("ResNet50", base);
  config.tenants[0].requests = 120;
  config.tenants[1].arrival_rps =
      3.0 / isolated_service_s("DenseNet121", base);
  config.tenants[1].requests = 240;
  const auto report = simulate(config);
  ASSERT_EQ(report.tenants.size(), 2u);
  const TenantReport& hi = report.tenants[0];
  const TenantReport& lo = report.tenants[1];
  ASSERT_EQ(hi.priority, 0u);
  EXPECT_EQ(hi.offered, 120u);
  // The regression bite: no false sheds and a healthy SLA record for the
  // protected class...
  EXPECT_EQ(hi.shed, 0u);
  EXPECT_EQ(hi.completed, hi.offered);
  EXPECT_LT(hi.sla_violation_rate, 0.05);
  // ...in the same run where the saturated class really is shedding.
  EXPECT_GT(lo.shed, 0u);
}

TEST(Admission, SingleClassRunsMatchTheFifoBaseline) {
  // All-zero priorities must reproduce the historical FIFO grant order
  // bit-for-bit ("0+0" is the explicit spelling of the default).
  const core::SystemConfig base = core::default_system_config();
  ServingSpec spec;
  spec.tenant_mix = "ResNet50+DenseNet121";
  spec.arrival_rps = 400.0;
  spec.requests = 40;
  spec.policy = BatchPolicy::kNone;
  const auto fifo = simulate(
      make_serving_config(base, accel::Architecture::kSiph2p5D, spec));
  spec.priority_mix = "0+0";
  const auto classed = simulate(
      make_serving_config(base, accel::Architecture::kSiph2p5D, spec));
  EXPECT_EQ(fifo.metrics.p99_s, classed.metrics.p99_s);
  EXPECT_EQ(fifo.metrics.makespan_s, classed.metrics.makespan_s);
  EXPECT_EQ(fifo.metrics.energy_j, classed.metrics.energy_j);
  ASSERT_EQ(fifo.classes.size(), 1u);
  EXPECT_EQ(fifo.metrics.p99_hi_s, fifo.metrics.p99_lo_s);
}

TEST(Admission, PriorityMixValidation) {
  ServingSpec spec;
  spec.tenant_mix = "LeNet5";
  spec.priority_mix = "0+1";  // two classes for one tenant
  EXPECT_THROW((void)spec.priorities(), std::invalid_argument);
  spec.priority_mix = "zero";
  EXPECT_THROW((void)spec.priorities(), std::invalid_argument);
  spec.priority_mix = "2";
  EXPECT_EQ(spec.priorities(), std::vector<unsigned>{2u});
  spec.priority_mix.clear();
  EXPECT_EQ(spec.priorities(), std::vector<unsigned>{0u});
}

TEST(AdmissionScenarioKey, AdmissionAndPrioritySplitTheKey) {
  engine::ScenarioSpec a;
  a.model = "LeNet5";
  a.serving = ServingSpec{};
  a.serving->tenant_mix = "LeNet5";
  engine::ScenarioSpec b = a;
  b.serving->admission = AdmissionPolicy::kSlaShed;
  EXPECT_NE(a.key(), b.key());
  engine::ScenarioSpec c = a;
  c.serving->priority_mix = "1";
  EXPECT_NE(a.key(), c.key());
}

TEST(AdmissionGrid, AdmissionAxisExpandsAndReportsCsvColumns) {
  engine::ScenarioGrid grid;
  grid.tenant_mixes = {"LeNet5"};
  grid.architectures = {accel::Architecture::kSiph2p5D};
  grid.arrival_rates_rps = {40000.0};
  grid.admission_policies = {AdmissionPolicy::kAdmitAll,
                             AdmissionPolicy::kSlaShed};
  grid.serving_defaults.requests = 150;

  const core::SystemConfig base = core::default_system_config();
  const auto specs = grid.expand(base);
  ASSERT_EQ(specs.size(), 2u);
  engine::SweepRunner runner(base);
  const auto results = runner.run(specs);
  ASSERT_EQ(results.size(), 2u);

  const auto header = engine::ResultStore::csv_header();
  const auto column = [&header](const char* name) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), name) - header.begin());
  };
  ASSERT_LT(column("admission"), header.size());
  const auto all_row = engine::ResultStore::csv_row(results[0]);
  const auto shed_row = engine::ResultStore::csv_row(results[1]);
  EXPECT_EQ(all_row[column("admission")], "all");
  EXPECT_EQ(shed_row[column("admission")], "shed");
  EXPECT_EQ(all_row[column("shed")], "0");
  // goodput/p99-class columns are populated numerics on serving rows.
  EXPECT_FALSE(shed_row[column("goodput_rps")].empty());
  EXPECT_FALSE(shed_row[column("p99_hi_s")].empty());
}

}  // namespace
}  // namespace optiplet::serve
