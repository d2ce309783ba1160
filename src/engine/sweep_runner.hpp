#pragma once
/// \file sweep_runner.hpp
/// Parallel scenario-grid evaluation on a ThreadPool.
///
/// Guarantees:
///  * **Determinism** — results come back in submission order and each
///    scenario is a pure function of (base config, spec), so the output is
///    bit-identical for 1 or N worker threads.
///  * **Memoization** — evaluations are cached by ScenarioSpec::key();
///    repeated points (within a batch or across run() calls on the same
///    runner) are never re-simulated.
///  * **Exception safety** — a scenario that throws does not poison the
///    pool; run() rethrows the first failure in submission order after all
///    in-flight work has settled.

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <optional>

#include "cluster/cluster_report.hpp"
#include "core/system_config.hpp"
#include "core/system_simulator.hpp"
#include "engine/scenario.hpp"
#include "serve/serving_report.hpp"

namespace optiplet::engine {

/// One evaluated scenario.
struct ScenarioResult {
  ScenarioSpec spec;
  /// Single-inference result — or, for serving scenarios, a summary view
  /// (latency = mean request latency, energy/power over the makespan).
  core::RunResult run;
  /// Request-level metrics; set exactly when spec.serving is set. For
  /// cluster scenarios this is the merged rack view.
  std::optional<serve::ServingMetrics> serving;
  /// Rack-level metrics; set exactly when spec.cluster is set.
  std::optional<cluster::ClusterMetrics> cluster;
  /// True when this result was served from the memo cache (either a
  /// duplicate inside the batch or a repeat from an earlier run() call).
  bool from_cache = false;
  /// Wall-clock seconds of the evaluation that produced this outcome (the
  /// original evaluation's cost when from_cache). Self-profiling only —
  /// NOT deterministic; never compare it across runs.
  double eval_wall_s = 0.0;
};

/// One per-scenario progress report (see SweepOptions::scenario_progress).
struct ScenarioProgress {
  std::size_t done = 0;   ///< scenarios resolved so far (riders included)
  std::size_t total = 0;  ///< batch size
  std::string key;        ///< ScenarioSpec::key() of the resolved scenario
  /// Wall-clock seconds the evaluation took; 0 for cache hits and for
  /// evaluations that threw.
  double wall_s = 0.0;
  bool from_cache = false;
};

struct SweepOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency.
  std::size_t threads = 0;
  /// Progress: one call per resolved scenario key — upfront cache hits
  /// each report their own key (with wall_s = 0), live evaluations report
  /// the measured wall-clock once they land (in-batch duplicates ride
  /// along in `done` without their own call). Calls are serialized by the
  /// runner; the callback itself need not be thread-safe, but it runs on
  /// worker threads — keep it cheap.
  std::function<void(const ScenarioProgress&)> scenario_progress;
};

class SweepRunner {
 public:
  explicit SweepRunner(core::SystemConfig base, SweepOptions options = {});

  /// Evaluate the specs in parallel; results are in spec order.
  [[nodiscard]] std::vector<ScenarioResult> run(
      const std::vector<ScenarioSpec>& specs);

  /// Expand the grid against the base config and evaluate it.
  [[nodiscard]] std::vector<ScenarioResult> run(const ScenarioGrid& grid);

  /// Full outcome of one scenario evaluation (serving metrics attached
  /// when the spec carries a serving block).
  struct EvalOutcome {
    core::RunResult run;
    std::optional<serve::ServingMetrics> serving;
    std::optional<cluster::ClusterMetrics> cluster;
    /// Wall-clock seconds the evaluation took (self-profiling only; NOT
    /// deterministic).
    double wall_s = 0.0;
  };

  /// Evaluate one scenario synchronously (no cache, no pool): the
  /// reference semantics every parallel path must reproduce exactly.
  [[nodiscard]] static EvalOutcome evaluate_outcome(
      const core::SystemConfig& base, const ScenarioSpec& spec);

  /// Single-inference view of evaluate_outcome() (kept for callers that
  /// never sweep serving axes).
  [[nodiscard]] static core::RunResult evaluate(
      const core::SystemConfig& base, const ScenarioSpec& spec);

  [[nodiscard]] const core::SystemConfig& base() const { return base_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }
  /// Scenarios served from cache so far (across run() calls).
  [[nodiscard]] std::size_t cache_hits() const { return cache_hits_; }
  /// Distinct scenarios simulated so far.
  [[nodiscard]] std::size_t cache_entries() const { return cache_.size(); }

 private:
  /// evaluate_outcome() minus the wall-clock stamp.
  [[nodiscard]] static EvalOutcome evaluate_untimed(
      const core::SystemConfig& base, const ScenarioSpec& spec);

  core::SystemConfig base_;
  SweepOptions options_;
  std::size_t threads_ = 1;
  std::unordered_map<std::string, std::shared_ptr<const EvalOutcome>> cache_;
  std::size_t cache_hits_ = 0;
};

}  // namespace optiplet::engine
