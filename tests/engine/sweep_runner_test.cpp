#include "engine/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dse.hpp"
#include "core/report.hpp"
#include "core/system_simulator.hpp"
#include "dnn/zoo.hpp"
#include "engine/thread_pool.hpp"
#include "noc/photonic_interposer.hpp"

namespace optiplet::engine {
namespace {

SweepOptions with_threads(std::size_t threads) {
  SweepOptions options;
  options.threads = threads;
  return options;
}

ScenarioGrid small_grid() {
  ScenarioGrid grid;
  grid.models = {"LeNet5", "MobileNetV2"};
  grid.architectures = {accel::Architecture::kMonolithicCrossLight,
                        accel::Architecture::kSiph2p5D};
  grid.wavelengths = {32, 64};
  return grid;
}

void expect_identical(const std::vector<ScenarioResult>& a,
                      const std::vector<ScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.key(), b[i].spec.key()) << "index " << i;
    EXPECT_EQ(a[i].run.model_name, b[i].run.model_name);
    EXPECT_EQ(a[i].run.arch, b[i].run.arch);
    // Bit-identical, not approximately equal: the parallel path must be
    // the same computation, merely scheduled differently.
    EXPECT_EQ(a[i].run.latency_s, b[i].run.latency_s) << "index " << i;
    EXPECT_EQ(a[i].run.energy_j, b[i].run.energy_j) << "index " << i;
    EXPECT_EQ(a[i].run.average_power_w, b[i].run.average_power_w);
    EXPECT_EQ(a[i].run.epb_j_per_bit, b[i].run.epb_j_per_bit);
    EXPECT_EQ(a[i].run.traffic_bits, b[i].run.traffic_bits);
    EXPECT_EQ(a[i].run.layers.size(), b[i].run.layers.size());
  }
}

TEST(SweepRunner, DeterministicAcrossThreadCounts) {
  const auto base = core::default_system_config();
  const auto grid = small_grid();
  const std::size_t hw = ThreadPool::resolve_threads(0);
  std::vector<std::size_t> counts{1, 2, hw};
  std::vector<std::vector<ScenarioResult>> outcomes;
  for (const std::size_t threads : counts) {
    SweepRunner runner(base, with_threads(threads));
    outcomes.push_back(runner.run(grid));
    EXPECT_EQ(runner.threads(), threads);
  }
  expect_identical(outcomes[0], outcomes[1]);
  expect_identical(outcomes[0], outcomes[2]);
}

TEST(SweepRunner, CycleFidelityDeterministicAcrossThreadCounts) {
  // The cycle-accurate photonic path drives ReSiPI epochs from simulated
  // traffic; its per-run state (controller activation, PCM stalls) must
  // stay confined to the scenario so results are bit-identical no matter
  // how the pool schedules them.
  ScenarioGrid grid;
  grid.models = {"LeNet5", "MobileNetV2"};
  grid.architectures = {accel::Architecture::kSiph2p5D};
  grid.fidelities = {core::Fidelity::kCycleAccurate};
  const auto base = core::default_system_config();
  const std::size_t hw = ThreadPool::resolve_threads(0);
  std::vector<std::vector<ScenarioResult>> outcomes;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    SweepRunner runner(base, with_threads(threads));
    outcomes.push_back(runner.run(grid));
  }
  expect_identical(outcomes[0], outcomes[1]);
  expect_identical(outcomes[0], outcomes[2]);
  for (std::size_t i = 0; i < outcomes[0].size(); ++i) {
    // Epoch-path observables, bit-identical too.
    EXPECT_EQ(outcomes[0][i].run.resipi_reconfigurations,
              outcomes[1][i].run.resipi_reconfigurations);
    EXPECT_EQ(outcomes[0][i].run.resipi_reconfigurations,
              outcomes[2][i].run.resipi_reconfigurations);
    EXPECT_EQ(outcomes[0][i].run.mean_active_gateways,
              outcomes[1][i].run.mean_active_gateways);
    EXPECT_EQ(outcomes[0][i].run.mean_active_gateways,
              outcomes[2][i].run.mean_active_gateways);
  }
}

TEST(SweepRunner, SampledFidelityDeterministicAcrossThreadCounts) {
  // The sampled window plan is seeded per scenario (core::sampled_layer_mask
  // hashes seed/salt/layer count), so stitched results must be bit-identical
  // however the pool schedules the mix of sampled and pure scenarios.
  ScenarioGrid grid;
  grid.models = {"LeNet5", "MobileNetV2"};
  grid.architectures = {accel::Architecture::kSiph2p5D};
  core::FidelitySpec sampled(core::Fidelity::kSampled);
  sampled.windows = 4;
  sampled.seed = 3;
  grid.fidelities = {core::Fidelity::kAnalytical, sampled};
  const auto base = core::default_system_config();
  const std::size_t hw = ThreadPool::resolve_threads(0);
  std::vector<std::vector<ScenarioResult>> outcomes;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hw}) {
    SweepRunner runner(base, with_threads(threads));
    outcomes.push_back(runner.run(grid));
  }
  expect_identical(outcomes[0], outcomes[1]);
  expect_identical(outcomes[0], outcomes[2]);
  bool saw_sampled = false;
  for (std::size_t i = 0; i < outcomes[0].size(); ++i) {
    for (const auto* other : {&outcomes[1], &outcomes[2]}) {
      EXPECT_EQ(outcomes[0][i].run.sampled_layers,
                (*other)[i].run.sampled_layers);
      EXPECT_EQ(outcomes[0][i].run.correction_factor,
                (*other)[i].run.correction_factor);
      EXPECT_EQ(outcomes[0][i].run.resipi_reconfigurations,
                (*other)[i].run.resipi_reconfigurations);
      EXPECT_EQ(outcomes[0][i].run.mean_active_gateways,
                (*other)[i].run.mean_active_gateways);
    }
    saw_sampled |= outcomes[0][i].run.sampled_layers > 0;
  }
  EXPECT_TRUE(saw_sampled);
}

TEST(SweepRunner, SampledSpecsMemoizeLikeAnyOther) {
  // Equal FidelitySpecs name identical simulations, so a repeated sampled
  // spec is a cache hit, while changing any sampling knob is a distinct
  // scenario key (a different window plan is a different simulation).
  core::FidelitySpec sampled(core::Fidelity::kSampled);
  sampled.windows = 2;
  sampled.seed = 3;
  ScenarioSpec spec;
  spec.model = "LeNet5";
  spec.fidelity = sampled;
  ScenarioSpec reseeded = spec;
  reseeded.fidelity.seed = 4;
  SweepRunner runner(core::default_system_config(), with_threads(2));
  const auto results = runner.run({spec, spec, reseeded});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(runner.cache_entries(), 2u);
  EXPECT_EQ(runner.cache_hits(), 1u);
  EXPECT_FALSE(results[0].from_cache);
  EXPECT_TRUE(results[1].from_cache);
  EXPECT_FALSE(results[2].from_cache);
  EXPECT_EQ(results[0].run.latency_s, results[1].run.latency_s);
}

TEST(SweepRunner, EvaluateMatchesDirectSimulatorRun) {
  const auto base = core::default_system_config();
  ScenarioSpec spec;
  spec.model = "LeNet5";
  spec.wavelengths = 32;
  spec.gateways_per_chiplet = 2;
  const auto engine_run = SweepRunner::evaluate(base, spec);

  core::SystemConfig cfg = base;
  spec.apply(cfg);
  const core::SystemSimulator sim(cfg);
  const auto direct = sim.run(dnn::zoo::by_name("LeNet5"), spec.arch);
  EXPECT_EQ(engine_run.latency_s, direct.latency_s);
  EXPECT_EQ(engine_run.energy_j, direct.energy_j);
  EXPECT_EQ(engine_run.epb_j_per_bit, direct.epb_j_per_bit);
}

TEST(SweepRunner, DuplicateSpecsHitTheCacheWithinABatch) {
  ScenarioSpec spec;
  spec.model = "LeNet5";
  SweepRunner runner(core::default_system_config(), with_threads(2));
  const auto results = runner.run({spec, spec, spec});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(runner.cache_entries(), 1u);
  EXPECT_EQ(runner.cache_hits(), 2u);
  EXPECT_FALSE(results[0].from_cache);
  EXPECT_TRUE(results[1].from_cache);
  EXPECT_TRUE(results[2].from_cache);
  EXPECT_EQ(results[0].run.latency_s, results[1].run.latency_s);
  EXPECT_EQ(results[0].run.latency_s, results[2].run.latency_s);
}

TEST(SweepRunner, RepeatedRunsAreServedFromCache) {
  const auto grid = small_grid();
  SweepRunner runner(core::default_system_config(), with_threads(2));
  const auto first = runner.run(grid);
  const std::size_t simulated = runner.cache_entries();
  EXPECT_EQ(runner.cache_hits(), 0u);
  const auto second = runner.run(grid);
  EXPECT_EQ(runner.cache_entries(), simulated);  // nothing re-simulated
  EXPECT_EQ(runner.cache_hits(), first.size());
  for (const auto& r : second) {
    EXPECT_TRUE(r.from_cache);
  }
  expect_identical(first, second);
}

TEST(SweepRunner, ScenarioProgressReportsKeysWallClockAndCacheHits) {
  const auto grid = small_grid();
  SweepOptions options;
  options.threads = 2;
  std::vector<ScenarioProgress> calls;
  options.scenario_progress = [&calls](const ScenarioProgress& p) {
    calls.push_back(p);
  };
  SweepRunner runner(core::default_system_config(), options);
  const auto results = runner.run(grid);
  ASSERT_EQ(calls.size(), results.size());
  std::size_t previous = 0;
  std::set<std::string> keys;
  for (const ScenarioProgress& p : calls) {
    EXPECT_EQ(p.total, results.size());
    EXPECT_GT(p.done, previous);
    previous = p.done;
    EXPECT_FALSE(p.key.empty());
    EXPECT_FALSE(p.from_cache);  // a fresh runner simulates everything
    EXPECT_GE(p.wall_s, 0.0);
    keys.insert(p.key);
  }
  EXPECT_EQ(calls.back().done, results.size());
  // Every scenario key reported exactly once.
  EXPECT_EQ(keys.size(), results.size());
  for (const auto& r : results) {
    EXPECT_EQ(keys.count(r.spec.key()), 1u) << r.spec.key();
    EXPECT_GE(r.eval_wall_s, 0.0);
  }
}

TEST(SweepRunner, ScenarioProgressReportsUpfrontCacheHitsPerKey) {
  const auto grid = small_grid();
  std::vector<ScenarioProgress> calls;
  SweepOptions options;
  options.threads = 2;
  options.scenario_progress = [&calls](const ScenarioProgress& p) {
    calls.push_back(p);
  };
  SweepRunner runner(core::default_system_config(), options);
  const auto first = runner.run(grid);  // warm the memo
  calls.clear();

  // Every scenario of the repeat resolves from the cross-run memo before
  // the pool spins up — and each must still report its own key (a single
  // bulk "done += n" would hide which scenarios were memoized).
  const auto second = runner.run(grid);
  ASSERT_EQ(calls.size(), second.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    EXPECT_TRUE(calls[i].from_cache) << calls[i].key;
    EXPECT_DOUBLE_EQ(calls[i].wall_s, 0.0);
    EXPECT_EQ(calls[i].done, i + 1);
    EXPECT_EQ(calls[i].key, first[i].spec.key());
  }

  // In-batch duplicates report alongside their one evaluation.
  calls.clear();
  ScenarioSpec spec;
  spec.model = "LeNet5";
  SweepRunner dup_runner(core::default_system_config(), options);
  const auto dups = dup_runner.run({spec, spec, spec});
  ASSERT_EQ(dups.size(), 3u);
  ASSERT_FALSE(calls.empty());
  EXPECT_FALSE(calls.front().from_cache);
  EXPECT_EQ(calls.front().key, dups[0].spec.key());
  EXPECT_EQ(calls.back().done, 3u);
}

TEST(SweepRunner, ScenarioExceptionsPropagateAndRunnerSurvives) {
  ScenarioSpec bad;
  bad.model = "NoSuchNet";
  ScenarioSpec good;
  good.model = "LeNet5";
  SweepRunner runner(core::default_system_config(), with_threads(2));
  EXPECT_THROW((void)runner.run({good, bad}), std::invalid_argument);
  // The failure neither poisons the pool nor caches a bogus result.
  const auto results = runner.run({good});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].run.latency_s, 0.0);
}

/// Serial reference implementation of the pre-engine core::explore loop —
/// the parity oracle for the parallel version.
std::vector<core::DsePoint> serial_explore_reference(
    const core::DseOptions& options, const core::SystemConfig& base) {
  std::vector<dnn::Model> models;
  for (const auto& name : options.models) {
    models.push_back(dnn::zoo::by_name(name));
  }
  std::vector<core::DsePoint> points;
  for (const std::size_t wavelengths : options.wavelengths) {
    for (const std::size_t gateways : options.gateways_per_chiplet) {
      if (gateways == 0 || wavelengths % gateways != 0) {
        continue;
      }
      for (const auto modulation : options.modulations) {
        core::SystemConfig cfg = base;
        cfg.photonic.total_wavelengths = wavelengths;
        cfg.photonic.gateways_per_chiplet = gateways;
        cfg.photonic.modulation = modulation;
        const noc::PhotonicInterposer probe(cfg.photonic, cfg.tech.photonic);
        if (!probe.link_budget_feasible()) {
          continue;
        }
        const core::SystemSimulator sim(cfg);
        std::vector<core::RunResult> runs;
        for (const auto& model : models) {
          runs.push_back(sim.run(model, options.arch));
        }
        const auto avg = core::average_runs("dse", runs);
        core::DsePoint p;
        p.wavelengths = wavelengths;
        p.gateways_per_chiplet = gateways;
        p.modulation = modulation;
        p.latency_s = avg.latency_s;
        p.power_w = avg.power_w;
        p.epb_j_per_bit = avg.epb_j_per_bit;
        points.push_back(p);
      }
    }
  }
  core::mark_pareto(points);
  return points;
}

TEST(SweepRunner, ParallelExploreMatchesSerialReferencePointForPoint) {
  core::DseOptions options;
  options.wavelengths = {16, 32, 64};
  options.gateways_per_chiplet = {2, 4};
  options.modulations = {photonics::ModulationFormat::kOok,
                         photonics::ModulationFormat::kPam4};
  options.models = {"LeNet5"};
  const auto base = core::default_system_config();

  const auto reference = serial_explore_reference(options, base);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    const auto parallel = core::explore(options, base);
    ASSERT_EQ(parallel.size(), reference.size()) << threads << " threads";
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(parallel[i].wavelengths, reference[i].wavelengths);
      EXPECT_EQ(parallel[i].gateways_per_chiplet,
                reference[i].gateways_per_chiplet);
      EXPECT_EQ(parallel[i].modulation, reference[i].modulation);
      EXPECT_EQ(parallel[i].latency_s, reference[i].latency_s);
      EXPECT_EQ(parallel[i].power_w, reference[i].power_w);
      EXPECT_EQ(parallel[i].epb_j_per_bit, reference[i].epb_j_per_bit);
      EXPECT_EQ(parallel[i].pareto, reference[i].pareto);
    }
  }
}

}  // namespace
}  // namespace optiplet::engine
