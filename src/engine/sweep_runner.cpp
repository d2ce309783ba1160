#include "engine/sweep_runner.hpp"

#include <chrono>
#include <exception>
#include <future>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "cluster/cluster_simulator.hpp"
#include "dnn/zoo.hpp"
#include "engine/thread_pool.hpp"
#include "serve/serving_simulator.hpp"

namespace optiplet::engine {

SweepRunner::SweepRunner(core::SystemConfig base, SweepOptions options)
    : base_(std::move(base)),
      options_(std::move(options)),
      threads_(ThreadPool::resolve_threads(options_.threads)) {}

SweepRunner::EvalOutcome SweepRunner::evaluate_outcome(
    const core::SystemConfig& base, const ScenarioSpec& spec) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  EvalOutcome outcome = evaluate_untimed(base, spec);
  outcome.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall_t0)
                       .count();
  return outcome;
}

SweepRunner::EvalOutcome SweepRunner::evaluate_untimed(
    const core::SystemConfig& base, const ScenarioSpec& spec) {
  core::SystemConfig cfg = base;
  spec.apply(cfg);
  EvalOutcome outcome;
  if (spec.cluster) {
    if (!spec.serving) {
      throw std::invalid_argument(
          "cluster scenario requires a serving block");
    }
    // Rack workers stay at 1 here: the SweepRunner already parallelizes
    // across scenarios, and cluster::simulate is thread-count invariant.
    const cluster::ClusterReport report = cluster::simulate(
        cluster::ClusterConfig{cfg, spec.arch, *spec.serving, *spec.cluster,
                               /*threads=*/1});
    outcome.serving = report.metrics.rack;
    outcome.cluster = report.metrics;
    outcome.run.model_name = spec.model;
    outcome.run.arch = spec.arch;
    outcome.run.latency_s = report.metrics.rack.mean_latency_s;
    outcome.run.energy_j = report.metrics.rack.energy_j;
    outcome.run.average_power_w =
        report.metrics.rack.makespan_s > 0.0
            ? report.metrics.rack.energy_j / report.metrics.rack.makespan_s
            : 0.0;
    return outcome;
  }
  if (spec.serving) {
    const serve::ServingReport report =
        serve::simulate(serve::make_serving_config(cfg, spec.arch,
                                                   *spec.serving));
    outcome.serving = report.metrics;
    // Summary view so architecture averages and best_by() stay usable:
    // latency = mean request latency, energy/power over the makespan.
    outcome.run.model_name = spec.model;
    outcome.run.arch = spec.arch;
    outcome.run.latency_s = report.metrics.mean_latency_s;
    outcome.run.energy_j = report.metrics.energy_j;
    outcome.run.average_power_w =
        report.metrics.makespan_s > 0.0
            ? report.metrics.energy_j / report.metrics.makespan_s
            : 0.0;
    outcome.run.ledger = report.ledger;
    return outcome;
  }
  const core::SystemSimulator sim(cfg);
  outcome.run = sim.run(dnn::zoo::by_name(spec.model), spec.arch);
  return outcome;
}

core::RunResult SweepRunner::evaluate(const core::SystemConfig& base,
                                      const ScenarioSpec& spec) {
  return evaluate_outcome(base, spec).run;
}

std::vector<ScenarioResult> SweepRunner::run(
    const std::vector<ScenarioSpec>& specs) {
  const std::size_t total = specs.size();
  std::vector<ScenarioResult> results(total);
  if (total == 0) {
    return results;
  }

  // One evaluation per distinct uncached key; duplicates and prior-run
  // repeats ride along as cache hits.
  struct Pending {
    std::string key;
    const ScenarioSpec* spec = nullptr;
    std::size_t rider_count = 1;  // specs resolved by this evaluation
    std::future<EvalOutcome> future;
  };

  std::vector<std::string> keys;
  keys.reserve(total);
  std::vector<bool> from_cache(total, false);
  std::vector<Pending> pending;
  std::unordered_map<std::string, std::size_t> pending_index;
  std::vector<std::size_t> resolved_upfront;  // served by a prior run()
  for (std::size_t i = 0; i < total; ++i) {
    keys.push_back(specs[i].key());
    if (cache_.count(keys[i]) != 0) {
      from_cache[i] = true;
      ++cache_hits_;
      resolved_upfront.push_back(i);
      continue;
    }
    if (const auto it = pending_index.find(keys[i]);
        it != pending_index.end()) {
      ++pending[it->second].rider_count;
      from_cache[i] = true;
      ++cache_hits_;
      continue;
    }
    pending_index.emplace(keys[i], pending.size());
    pending.push_back(Pending{keys[i], &specs[i], 1, {}});
  }

  std::mutex progress_mutex;
  std::size_t done = 0;
  const auto report = [&](std::size_t increment, const std::string& key,
                          double wall_s, bool hit) {
    if (!options_.scenario_progress) {
      return;
    }
    const std::lock_guard<std::mutex> lock(progress_mutex);
    done += increment;
    ScenarioProgress p;
    p.done = done;
    p.total = total;
    p.key = key;
    p.wall_s = wall_s;
    p.from_cache = hit;
    options_.scenario_progress(p);
  };

  // Prior-run cache hits report one at a time so scenario_progress sees
  // every key (a single bulk increment used to hide which scenarios were
  // memoized).
  for (const std::size_t i : resolved_upfront) {
    report(1, keys[i], /*wall_s=*/0.0, /*hit=*/true);
  }
  {
    ThreadPool pool(threads_);
    for (auto& p : pending) {
      const ScenarioSpec* spec = p.spec;
      const std::string* key = &p.key;
      // In-batch duplicates resolve with their evaluation.
      const std::size_t increment = p.rider_count;
      p.future = pool.submit([this, spec, key, increment, &report] {
        try {
          EvalOutcome outcome = evaluate_outcome(base_, *spec);
          report(increment, *key, outcome.wall_s, /*hit=*/false);
          return outcome;
        } catch (...) {
          report(increment, *key, /*wall_s=*/0.0, /*hit=*/false);
          throw;
        }
      });
    }
  }  // pool joins here; every future below is ready

  // Settle every in-flight evaluation, then surface the first failure in
  // submission order (failed scenarios are not cached).
  std::exception_ptr first_error;
  for (auto& p : pending) {
    try {
      cache_.emplace(p.key,
                     std::make_shared<const EvalOutcome>(p.future.get()));
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }

  for (std::size_t i = 0; i < total; ++i) {
    results[i].spec = specs[i];
    results[i].from_cache = from_cache[i];
    const EvalOutcome& outcome = *cache_.at(keys[i]);
    results[i].run = outcome.run;
    results[i].serving = outcome.serving;
    results[i].cluster = outcome.cluster;
    results[i].eval_wall_s = outcome.wall_s;
  }
  return results;
}

std::vector<ScenarioResult> SweepRunner::run(const ScenarioGrid& grid) {
  return run(grid.expand(base_));
}

}  // namespace optiplet::engine
