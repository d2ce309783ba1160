#pragma once
/// \file workloads.hpp
/// The benchmark's four workloads: their definitions, the fixed set-up each
/// one does before its first simulated event, one repetition of its timed
/// section through the simulator's public entry points (serve::simulate,
/// cluster::simulate, engine::SweepRunner::run), and the output checks.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_simulator.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"
#include "span_trace.hpp"

namespace optiplet::perfbench {

/// One workload resolved from its name and seed. Exactly one of the lone
/// serving run, the rack (`rack` set) and the sweep (`grid` set) applies.
struct Workload {
  std::string name;
  std::size_t threads = 1;
  core::SystemConfig base;
  accel::Architecture arch = accel::Architecture::kSiph2p5D;
  serve::ServingSpec serving;
  std::optional<cluster::ClusterSpec> rack;
  std::optional<engine::ScenarioGrid> grid;
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Median of `values`; 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The base system with one scenario's interposer shape and overrides.
[[nodiscard]] core::SystemConfig scenario_config(
    const Workload& w, const engine::ScenarioSpec& spec);

/// What the fixed set-up hands the timed section.
struct Prepared {
  std::vector<engine::ScenarioSpec> specs;
  /// Lone serving workloads: one config per spec.
  std::vector<serve::ServingConfig> serving;
  std::optional<cluster::ClusterConfig> rack;
};

/// The per-scenario set-up a workload does before its first simulated
/// event, through public calls, each call spanned on `trace`: model
/// lookup, make_serving_config and make_colocated_setup for every scenario
/// (per package plus place_tenants, and each model solo for the balancer
/// weights, on the rack), then the oracle warm-up of every batch-1 and
/// full-batch point (see OraclePlan). The sweep first runs
/// ScenarioGrid::expand, the link-budget check of every expanded spec and
/// SweepRunner construction, and skips the warm-up: its sampled-fidelity
/// points are the bulk of its measured work.
[[nodiscard]] Prepared set_up(const Workload& w, SpanTrace& trace);

/// Kinds of ServiceTimeOracle lookup the set-up warms.
enum class Lookup { kBatch, kLayerSchedule, kPrefill, kDecode };

/// The oracle points one co-located tenant set prices before its first
/// event: batch 1 (the SLA pin), the policy's full batch, the layer
/// schedule in layer-granular mode, and for transformer tenants the
/// batch-1 price of every prompt length and KV length the token spread
/// admits (decode_run buckets the KV lengths). Points whose batch sizes
/// depend on the run's dynamics (partial tail batches, continuous-batching
/// groups) are priced lazily inside the timed section.
struct OraclePlan {
  struct Point {
    std::size_t tenant = 0;
    Lookup lookup = Lookup::kBatch;
    unsigned batch = 1;
    std::uint32_t tokens = 0;  ///< prompt length or raw KV length
  };
  std::vector<serve::ServiceTimeOracle::Tenant> tenants;
  serve::ServingSpec spec;
  std::vector<Point> points;
  /// A model priced solo for the rack balancer's weights, which no
  /// package simulation serves.
  bool balancer_weight = false;
};

/// The oracle plans of every scenario of `prepared`: one per lone scenario,
/// and on the rack one per active package, in package order, plus one per
/// model solo.
[[nodiscard]] std::vector<OraclePlan> plan_oracles(const Workload& w,
                                                   const Prepared& prepared,
                                                   SpanTrace& trace);

/// Warm every point of `plan` through a fresh ServiceTimeOracle.
void warm(const OraclePlan& plan, accel::Architecture arch, SpanTrace& trace);

/// Price as many distinct points through a fresh ServiceTimeOracle as one
/// run of `plan`'s scenario did (`run_points`, its service_cache_misses):
/// the plan's points, then the points of batch sizes 2, 3, ... up to the
/// policy's maximum, until the counts match. The points the run's dynamics
/// chose are not observable, so these are points of the same kinds and
/// ranges. Throws std::runtime_error when the counts cannot match.
void warm_like_run(const OraclePlan& plan, accel::Architecture arch,
                   std::uint64_t run_points, SpanTrace& trace);

/// One scenario's simulated outcome.
struct Outcome {
  std::string label;
  serve::ServingMetrics metrics;
  /// Rack only: the rack counters beyond the merged serving metrics.
  std::optional<cluster::ClusterMetrics> rack;
};

/// One repetition of the timed section.
struct Rep {
  double wall_s = 0.0;
  std::vector<Outcome> outcomes;
  /// The raw reports, kept for the traced run's layer probes.
  std::vector<serve::ServingReport> serving;
  std::optional<cluster::ClusterReport> rack;
  std::vector<engine::ScenarioResult> sweep;
};

/// Run the workload once through its public entry point, spanned as
/// serve.simulate, cluster.simulate or engine.sweep. `recorder`, when set,
/// is attached to every lone and rack run.
[[nodiscard]] Rep run_rep(const Workload& w, const Prepared& prepared,
                          SpanTrace& trace, obs::Recorder* recorder = nullptr);

/// SweepRunner options at the workload's thread count.
[[nodiscard]] engine::SweepOptions sweep_options(const Workload& w);

/// Requests the workload's scenarios offer per repetition.
[[nodiscard]] std::uint64_t requests_per_rep(const Prepared& prepared);

/// FNV-1a digest over the bit patterns of every ServingMetrics field (plus
/// the rack counters): equal digests mean bit-identical outcomes.
[[nodiscard]] std::uint64_t digest(const Outcome& outcome);

/// Empty when the outcome drains (offered == completed + shed + abandoned)
/// and offered the requests its spec asked for; otherwise why not.
[[nodiscard]] std::string check(const Outcome& outcome,
                                std::uint64_t expected_offered);

}  // namespace optiplet::perfbench
