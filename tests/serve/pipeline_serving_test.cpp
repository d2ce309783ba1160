/// \file pipeline_serving_test.cpp
/// Invariants of layer-granular (SET-style pipelined) serving:
///   * no chiplet group is ever double-booked — across tenants *and*
///     across a tenant's own in-flight batches;
///   * at saturating load on a co-located mix the pipelined pool runs at
///     strictly higher utilization (and shorter tails) than the blocked
///     batch-granular baseline;
///   * a lone batch in flight degenerates to the batch-granular result
///     bit-for-bit (the validated baseline stays authoritative);
///   * cross-tenant handoffs of the scarce shared group charge exactly
///     one ReSiPI retune window each;
///   * every pipelined batch runs its stage chain once, in layer order,
///     also when a stage end grants the freed group to work that
///     dispatches into a newly grown batch slab.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "dnn/zoo.hpp"
#include "engine/result_store.hpp"
#include "engine/scenario.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"

namespace optiplet::serve {
namespace {

ServingConfig mix_config(const std::string& mix, double rate_rps,
                         std::uint64_t requests, PipelineMode pipeline) {
  ServingSpec spec;
  spec.tenant_mix = mix;
  spec.arrival_rps = rate_rps;
  spec.requests = requests;
  spec.policy = BatchPolicy::kNone;
  spec.pipeline = pipeline;
  return make_serving_config(core::default_system_config(),
                             accel::Architecture::kSiph2p5D, spec);
}

/// True when [a0,a1) and [b0,b1) overlap.
bool overlaps(double a0, double a1, double b0, double b1) {
  return a0 < b1 && b0 < a1;
}

TEST(LayerSchedule, DecomposesTheBatchRunConsistently) {
  // The schedule is the batch run, re-expressed: stages partition the
  // run's per-layer breakdown into same-group runs, each stage's latency
  // is its layers' sum, and the last stage's end offset pins the chain to
  // the run latency *exactly*.
  const core::SystemConfig base = core::default_system_config();
  ServiceTimeOracle oracle(
      {{dnn::zoo::by_name("MobileNetV2"), base, std::nullopt}},
      accel::Architecture::kSiph2p5D);
  for (const unsigned batch : {1u, 4u}) {
    const core::RunResult& run = oracle.batch_run(0, batch);
    const LayerSchedule& schedule = oracle.layer_schedule(0, batch);
    ASSERT_FALSE(schedule.stages.empty());
    EXPECT_GT(schedule.stages.size(), 1u);  // MobileNetV2 mixes groups
    EXPECT_EQ(schedule.stages.back().end_offset_s, run.latency_s);
    std::size_t covered = 0;
    double prev_end = 0.0;
    for (const PipelineStage& stage : schedule.stages) {
      EXPECT_EQ(stage.first_layer, covered);
      EXPECT_EQ(stage.start_offset_s, prev_end);  // exact telescoping
      double latency = 0.0;
      for (std::size_t i = 0; i < stage.layer_count; ++i) {
        EXPECT_EQ(run.layers[covered + i].group, stage.group);
        latency += run.layers[covered + i].total_s;
      }
      EXPECT_EQ(stage.latency_s, latency);
      covered += stage.layer_count;
      prev_end = stage.end_offset_s;
    }
    EXPECT_EQ(covered, run.layers.size());
  }
}

TEST(PipelineServing, NeverDoubleBooksAnyChipletGroup) {
  // MobileNetV2 + ResNet50 under load, pipelined: stages of concurrent
  // batches — same tenant or not — must hold disjoint chiplets, and
  // cross-tenant ReSiPI windows must still serialize.
  auto config = mix_config("MobileNetV2+ResNet50", 800.0, 120,
                           PipelineMode::kLayerGranular);
  config.record_batches = true;
  const auto report = simulate(config);
  EXPECT_EQ(report.metrics.completed, 120u);
  ASSERT_FALSE(report.batches.empty());

  for (std::size_t i = 0; i < report.batches.size(); ++i) {
    for (std::size_t j = i + 1; j < report.batches.size(); ++j) {
      const auto& a = report.batches[i];
      const auto& b = report.batches[j];
      if (!overlaps(a.start_s, a.end_s, b.start_s, b.end_s)) {
        continue;
      }
      // Unlike the batch-granular audit, same-tenant pairs are checked
      // too: pipelined batches of one tenant overlap in time and must sit
      // on different chiplet groups.
      if (a.tenant != b.tenant || a.batch_id != b.batch_id) {
        for (const std::size_t c : a.chiplets) {
          EXPECT_EQ(std::find(b.chiplets.begin(), b.chiplets.end(), c),
                    b.chiplets.end())
              << "chiplet " << c << " double-booked";
        }
      }
      if (a.tenant != b.tenant && a.resipi_end_s > a.resipi_start_s &&
          b.resipi_end_s > b.resipi_start_s) {
        EXPECT_FALSE(overlaps(a.resipi_start_s, a.resipi_end_s,
                              b.resipi_start_s, b.resipi_end_s))
            << "cross-tenant ReSiPI windows overlap";
      }
    }
  }
}

TEST(PipelineServing, EveryStageChainRunsOnceInLayerOrder) {
  // TinyGPT's whole batches (tenant-level work) share the dense pool with
  // two pipelined CNNs. At this seed and load one stage end grants the
  // pool to a TinyGPT batch whose end event needs a new slot just as the
  // slab is full, so the slab reallocates under the stage end that is
  // still advancing its own batch (the engine re-indexes after the
  // release; ASan/UBSan and _GLIBCXX_ASSERTIONS builds catch a stale
  // reference there).
  ServingSpec spec;
  spec.tenant_mix = "TinyGPT+LeNet5+MobileNetV2";
  spec.arrival_rps = 3000.0;
  spec.requests = 150;
  spec.seed = 7;
  spec.pipeline = PipelineMode::kLayerGranular;
  spec.priority_mix = "0+1+0";
  spec.policy = BatchPolicy::kDeadline;
  spec.max_batch = 4;
  spec.max_wait_s = 1.0e-3;
  ServingConfig config = make_serving_config(
      core::default_system_config(), accel::Architecture::kSiph2p5D, spec);
  config.record_batches = true;
  // Only TinyGPT carries token geometry; the CNNs are fixed-shape.
  config.tenants[0].batching.policy = BatchPolicy::kNone;
  config.tenants[0].prefill_tokens = 32;
  config.tenants[0].decode_tokens = 4;
  config.tenants[0].token_spread = 0.5;
  const ServingReport report = simulate(config);
  EXPECT_EQ(report.metrics.completed, 150u);

  std::map<std::pair<std::size_t, std::uint64_t>, std::vector<BatchTrace>>
      chains;
  for (const BatchTrace& b : report.batches) {
    if (b.tenant != 0) {
      chains[{b.tenant, b.batch_id}].push_back(b);
    }
  }
  ASSERT_FALSE(chains.empty());
  std::map<std::size_t, std::size_t> layers_of;  // per tenant
  for (auto& [key, stages] : chains) {
    std::sort(stages.begin(), stages.end(),
              [](const BatchTrace& a, const BatchTrace& b) {
                return a.start_s < b.start_s;
              });
    std::size_t next_layer = 0;
    double prev_end = stages.front().start_s;
    for (const BatchTrace& s : stages) {
      EXPECT_EQ(s.first_layer, next_layer)
          << "tenant " << key.first << " batch " << key.second;
      EXPECT_GE(s.start_s, prev_end);
      EXPECT_GT(s.layer_count, 0u);
      next_layer = s.first_layer + s.layer_count;
      prev_end = s.end_s;
    }
    const auto it = layers_of.emplace(key.first, next_layer).first;
    EXPECT_EQ(next_layer, it->second)
        << "tenant " << key.first << " batch " << key.second
        << " skipped or repeated a stage";
  }
  EXPECT_EQ(layers_of.size(), 2u);
}

TEST(PipelineServing, RaisesUtilizationAtSaturatingLoadOnColocatedMix) {
  // ResNet50 + DenseNet121 both need the single 7x7 chiplet. At 3000 r/s
  // (far past capacity) the batch-granular pool serializes whole batches
  // on the shared lock; layer-granular handoff overlaps everything else,
  // so utilization, throughput, and the tail must all improve strictly.
  const auto blocked = simulate(mix_config("ResNet50+DenseNet121", 3000.0,
                                           80, PipelineMode::kBatchGranular));
  const auto pipelined = simulate(mix_config(
      "ResNet50+DenseNet121", 3000.0, 80, PipelineMode::kLayerGranular));
  EXPECT_EQ(blocked.metrics.completed, 80u);
  EXPECT_EQ(pipelined.metrics.completed, 80u);
  EXPECT_GT(pipelined.metrics.utilization, blocked.metrics.utilization);
  EXPECT_GT(pipelined.metrics.throughput_rps,
            1.5 * blocked.metrics.throughput_rps);
  EXPECT_LT(pipelined.metrics.p99_s, blocked.metrics.p99_s);
  EXPECT_LT(pipelined.metrics.makespan_s, blocked.metrics.makespan_s);
  // The scarce group actually changed hands at layer boundaries.
  EXPECT_GT(pipelined.metrics.shared_handoffs, 0u);
  EXPECT_EQ(blocked.metrics.shared_handoffs, 0u);
}

TEST(PipelineServing, HandoffsChargeOneRetuneWindowEach) {
  const auto report = simulate(mix_config("ResNet50+DenseNet121", 3000.0, 40,
                                          PipelineMode::kLayerGranular));
  const auto& m = report.metrics;
  ASSERT_GT(m.shared_handoffs, 0u);
  const double write_s =
      core::default_system_config().tech.photonic.pcm.write_time_s;
  EXPECT_DOUBLE_EQ(m.handoff_resipi_s,
                   static_cast<double>(m.shared_handoffs) * write_s);
}

TEST(PipelineServing, SingleTenantPipelinesAcrossItsGroups) {
  // LeNet5 alternates conv and dense groups: past the no-batch capacity,
  // pipelining batch i's dense layers under batch i+1's convs sustains
  // strictly higher throughput at identical per-batch energy.
  const auto blocked = simulate(
      mix_config("LeNet5", 200000.0, 600, PipelineMode::kBatchGranular));
  const auto pipelined = simulate(
      mix_config("LeNet5", 200000.0, 600, PipelineMode::kLayerGranular));
  EXPECT_EQ(pipelined.metrics.completed, 600u);
  EXPECT_GT(pipelined.metrics.throughput_rps,
            1.2 * blocked.metrics.throughput_rps);
  EXPECT_LT(pipelined.metrics.p99_s, blocked.metrics.p99_s);
  EXPECT_NEAR(pipelined.metrics.energy_per_request_j,
              blocked.metrics.energy_per_request_j,
              0.02 * blocked.metrics.energy_per_request_j);
}

TEST(PipelineServing, LoneBatchDegeneratesToBatchGranularExactly) {
  // Arrivals spaced far beyond the service time: never more than one
  // batch in flight, so the layer-advance chain must telescope to the
  // batch-granular completion times bit-for-bit.
  const std::string path =
      ::testing::TempDir() + "pipeline_degenerate_trace.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "arrival_s\n0.000\n0.010\n0.020\n0.030\n";
  }
  ServingSpec spec;
  spec.tenant_mix = "LeNet5";
  spec.policy = BatchPolicy::kNone;
  spec.trace_path = path;
  const core::SystemConfig base = core::default_system_config();
  spec.pipeline = PipelineMode::kBatchGranular;
  const auto blocked = simulate(
      make_serving_config(base, accel::Architecture::kSiph2p5D, spec));
  spec.pipeline = PipelineMode::kLayerGranular;
  const auto pipelined = simulate(
      make_serving_config(base, accel::Architecture::kSiph2p5D, spec));
  std::remove(path.c_str());

  EXPECT_EQ(pipelined.metrics.completed, blocked.metrics.completed);
  EXPECT_EQ(pipelined.metrics.makespan_s, blocked.metrics.makespan_s);
  EXPECT_EQ(pipelined.metrics.mean_latency_s,
            blocked.metrics.mean_latency_s);
  EXPECT_EQ(pipelined.metrics.p50_s, blocked.metrics.p50_s);
  EXPECT_EQ(pipelined.metrics.p99_s, blocked.metrics.p99_s);
  EXPECT_EQ(pipelined.metrics.throughput_rps,
            blocked.metrics.throughput_rps);
  // Busy time is accumulated per stage instead of per batch, so energy
  // and utilization may differ by float-rounding ulps, nothing more.
  EXPECT_NEAR(pipelined.metrics.energy_j, blocked.metrics.energy_j,
              1e-9 * blocked.metrics.energy_j);
  EXPECT_NEAR(pipelined.metrics.utilization, blocked.metrics.utilization,
              1e-9);
}

TEST(PipelineServing, ModeSplitsScenarioKeyAndCsv) {
  engine::ScenarioSpec a;
  a.model = "LeNet5";
  a.serving = ServingSpec{};
  a.serving->tenant_mix = "LeNet5";
  engine::ScenarioSpec b = a;
  b.serving->pipeline = PipelineMode::kLayerGranular;
  EXPECT_NE(a.key(), b.key());

  engine::ScenarioGrid grid;
  grid.tenant_mixes = {"LeNet5"};
  grid.pipeline_modes = {PipelineMode::kBatchGranular,
                         PipelineMode::kLayerGranular};
  const auto specs = grid.expand(core::default_system_config());
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].serving->pipeline, PipelineMode::kBatchGranular);
  EXPECT_EQ(specs[1].serving->pipeline, PipelineMode::kLayerGranular);

  // The CSV face carries the mode in the "pipeline" column.
  const auto header = engine::ResultStore::csv_header();
  const auto it = std::find(header.begin(), header.end(), "pipeline");
  ASSERT_NE(it, header.end());
  engine::ScenarioResult result;
  result.spec = specs[1];
  result.serving = ServingMetrics{};
  const auto row = engine::ResultStore::csv_row(result);
  EXPECT_EQ(row[static_cast<std::size_t>(it - header.begin())], "layer");
}

}  // namespace
}  // namespace optiplet::serve
