/// \file sim_speed_sweep.cpp
/// Simulator self-benchmark: requests simulated per wall-second at each
/// interconnect fidelity, on the serving load sweep the fidelity modes
/// exist to accelerate.
///
/// One heavyweight, deep tenant (DenseNet121) is served at the same
/// sub-knee load points under kAnalytical, kCycleAccurate, and kSampled.
/// Each fidelity repetition runs on a fresh SweepRunner so its wall-clock
/// includes the ServiceTimeOracle warm-up (the memoized per-(tenant,
/// batch) system runs where fidelity cost actually lives) plus the
/// request event loop.
///
/// Timing: every compared kind (the three fidelities; the two sides of
/// the observability pair) is the median of repetitions run in rounds
/// whose order rotates, so neighbouring repetitions see nearly the same
/// host speed, and the rounds continue until every kind has run for
/// kMinSecondsPerKind in total, so each median resolves the ratios the
/// gates compare.
///
/// The CSV makes the speed/accuracy contract measurable: sampled fidelity
/// must stay within the calibration tolerance bands of the cycle-accurate
/// latencies while simulating requests an order of magnitude faster.
/// tools/check_bench_csv.py trips CI when either side regresses
/// (sampled < 10x cycle requests/wall-s, or sampled latency outside the
/// cycle bands).
///
/// Dumps sim_speed_sweep.csv next to the binary.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fidelity.hpp"
#include "engine/result_store.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/recorder.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace {

using namespace optiplet;

constexpr const char* kModel = "DenseNet121";
constexpr std::uint64_t kRequestsPerPoint = 400;

/// Sub-knee load points: latency tracks the batch service time here, so
/// the sampled-vs-cycle comparison measures model agreement. Near the
/// knee, queueing would amplify a few percent of service-time error into
/// tens of percent of latency error (waits scale like 1/(1 - rho)) and
/// the band would gate queueing theory instead of fidelity.
constexpr double kUtilizations[] = {0.3, 0.6};

/// The sampled operating point the CI gate is calibrated for: 8 windows
/// keeps the worst-case DenseNet121 latency error inside the calibration
/// bands (see tests/serve/batch_calibration_test.cpp) while the cycle
/// loop runs only on ~6% of the layers.
core::FidelitySpec sampled_spec() {
  core::FidelitySpec spec(core::Fidelity::kSampled);
  spec.windows = 8;
  spec.seed = 3;
  return spec;
}

/// Each compared kind runs at least this long in total [s] and at least
/// kMinRounds times before its median is taken.
constexpr double kMinSecondsPerKind = 0.2;
constexpr std::size_t kMinRounds = 3;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Runs one repetition of every kind per round, starting each round one
/// kind later than the last, until every kind has run kMinRounds times
/// and kMinSecondsPerKind in total; returns each kind's median wall time.
/// A kind is a callable that runs one repetition and returns its wall
/// time [s].
std::vector<double> rotated_medians(
    const std::vector<std::function<double()>>& kinds) {
  const std::size_t n = kinds.size();
  std::vector<std::vector<double>> walls(n);
  std::vector<double> totals(n, 0.0);
  for (std::size_t round = 0;
       round < kMinRounds ||
       *std::min_element(totals.begin(), totals.end()) < kMinSecondsPerKind;
       ++round) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (round + k) % n;
      const double wall_s = kinds[i]();
      OPTIPLET_REQUIRE(wall_s > 0.0, "zero wall time for a timed repetition");
      walls[i].push_back(wall_s);
      totals[i] += wall_s;
    }
  }
  std::vector<double> medians;
  for (const std::vector<double>& w : walls) {
    medians.push_back(median(w));
  }
  return medians;
}

}  // namespace

int main() {
  const core::SystemConfig base = core::default_system_config();

  // One shared capacity anchor (analytical batch-1 service time) so every
  // fidelity serves the exact same offered rates.
  const double capacity_rps = [&base] {
    serve::ColocatedSetup setup = serve::make_colocated_setup(
        base, accel::Architecture::kSiph2p5D, serve::split_mix(kModel));
    serve::ServiceTimeOracle oracle(std::move(setup.oracle_tenants),
                                    accel::Architecture::kSiph2p5D);
    return 1.0 / oracle.batch_run(0, 1).latency_s;
  }();
  std::printf("%s on 2.5D-CrossLight-SiPh: no-batch capacity %.0f "
              "requests/s (analytical anchor)\n\n",
              kModel, capacity_rps);

  const std::vector<core::FidelitySpec> fidelities = {
      core::Fidelity::kAnalytical, core::Fidelity::kCycleAccurate,
      sampled_spec()};

  util::CsvWriter csv("sim_speed_sweep.csv",
                      {"fidelity", "policy", "offered_rps", "offered_util",
                       "requests", "wall_s", "requests_per_wall_s",
                       "throughput_rps", "mean_s", "p50_s", "p95_s", "p99_s",
                       "mean_batch", "obs"});
  OPTIPLET_REQUIRE(csv.ok(), "cannot write sim_speed_sweep.csv");

  util::TextTable table({"Fidelity", "Wall (s)", "Req/wall-s", "Points",
                         "p50 @0.3 (us)", "p50 @0.6 (us)"});
  std::vector<engine::ScenarioGrid> grids;
  for (const core::FidelitySpec& fidelity : fidelities) {
    engine::ScenarioGrid grid;
    grid.tenant_mixes = {kModel};
    grid.architectures = {accel::Architecture::kSiph2p5D};
    grid.fidelities = {fidelity};
    // kNone serves batch 1, kFixedSize batch 8 (plus a partial tail): the
    // oracle warms several distinct batch sizes per fidelity, the axis the
    // memoized cycle cost scales along.
    grid.batch_policies = {serve::BatchPolicy::kNone,
                           serve::BatchPolicy::kFixedSize};
    for (const double util : kUtilizations) {
      grid.arrival_rates_rps.push_back(util * capacity_rps);
    }
    grid.serving_defaults.requests = kRequestsPerPoint;
    grid.serving_defaults.max_batch = 8;
    grid.serving_defaults.max_wait_s = 500e-6;
    grids.push_back(std::move(grid));
  }

  // Fresh runner per repetition: the wall-clock below is the fidelity's
  // full cost — oracle warm-up included — with no memo reuse across
  // repetitions or fidelities. Runs are deterministic, so the first
  // repetition's results stand for all of them.
  std::vector<std::optional<engine::ResultStore>> stores(grids.size());
  std::vector<std::function<double()>> sweeps;
  for (std::size_t f = 0; f < grids.size(); ++f) {
    sweeps.emplace_back([&base, &grids, &stores, f] {
      engine::SweepRunner runner(base);
      const auto t0 = std::chrono::steady_clock::now();
      engine::ResultStore store(runner.run(grids[f]));
      const double wall_s = seconds_since(t0);
      OPTIPLET_REQUIRE(!store.empty(), "sim speed sweep produced no results");
      if (!stores[f]) {
        stores[f] = std::move(store);
      }
      return wall_s;
    });
  }
  const std::vector<double> sweep_walls = rotated_medians(sweeps);

  for (std::size_t f = 0; f < grids.size(); ++f) {
    const engine::ResultStore& store = *stores[f];
    const double wall_s = sweep_walls[f];
    const double simulated_requests = static_cast<double>(
        kRequestsPerPoint * store.results().size());
    const double requests_per_wall_s = simulated_requests / wall_s;

    const std::string fidelity_name = core::to_string(fidelities[f]);
    double p50_low = 0.0;
    double p50_high = 0.0;
    for (const auto& r : store.results()) {
      OPTIPLET_REQUIRE(r.serving.has_value(),
                       "sim speed row without serving metrics");
      const auto& m = *r.serving;
      const auto& s = *r.spec.serving;
      const double util = s.arrival_rps / capacity_rps;
      if (s.policy == serve::BatchPolicy::kNone) {
        (util < 0.45 ? p50_low : p50_high) = m.p50_s;
      }
      csv.add_row({fidelity_name, serve::to_string(s.policy),
                   util::format_general(s.arrival_rps),
                   util::format_general(util),
                   std::to_string(kRequestsPerPoint),
                   util::format_general(wall_s),
                   util::format_general(requests_per_wall_s),
                   util::format_general(m.throughput_rps),
                   util::format_general(m.mean_latency_s),
                   util::format_general(m.p50_s),
                   util::format_general(m.p95_s),
                   util::format_general(m.p99_s),
                   util::format_general(m.mean_batch), "off"});
    }
    table.add_row({fidelity_name, util::format_fixed(wall_s, 3),
                   util::format_fixed(requests_per_wall_s, 0),
                   std::to_string(store.results().size()),
                   util::format_fixed(p50_low * 1e6, 1),
                   util::format_fixed(p50_high * 1e6, 1)});
  }

  std::fputs(table.render().c_str(), stdout);

  // Observability overhead pair: the same analytical scenario with the
  // recorder detached (obs=pair-off, the null-recorder default) and
  // attached with collection disabled (obs=pair-on) — every hook branch
  // is taken but nothing is recorded, which is exactly the cost the
  // "near-zero overhead when disabled" contract bounds. Each side is the
  // median of rotated repetitions, so host-speed drift does not
  // masquerade as overhead. tools/check_bench_csv.py gates the attached
  // rate at >= 97% of the detached rate. (Full recording is deliberately
  // not under the 3% gate: tracing writes per-request spans, so its cost
  // scales with what it records.)
  {
    serve::ServingSpec spec;
    spec.tenant_mix = kModel;
    spec.arrival_rps = 0.6 * capacity_rps;
    spec.requests = 2 * kRequestsPerPoint;
    serve::ServingConfig config = serve::make_serving_config(
        base, accel::Architecture::kSiph2p5D, spec);

    obs::RecorderOptions idle;
    idle.trace = false;
    idle.metrics = false;
    obs::Recorder recorder(idle);
    std::optional<serve::ServingReport> reports[2];
    std::vector<std::function<double()>> sides;
    for (const bool attached : {false, true}) {
      sides.emplace_back([&config, &recorder, &reports, attached] {
        config.recorder = attached ? &recorder : nullptr;
        const auto t0 = std::chrono::steady_clock::now();
        serve::ServingReport report = serve::simulate(config);
        const double wall_s = seconds_since(t0);
        if (!reports[attached]) {
          reports[attached] = std::move(report);
        }
        return wall_s;
      });
    }
    const std::vector<double> side_walls = rotated_medians(sides);

    for (const bool attached : {false, true}) {
      const double wall_s = side_walls[attached];
      const auto& m = reports[attached]->metrics;
      const double rate = static_cast<double>(m.offered) / wall_s;
      csv.add_row({"analytical", "none",
                   util::format_general(spec.arrival_rps), "0.6",
                   std::to_string(spec.requests),
                   util::format_general(wall_s), util::format_general(rate),
                   util::format_general(m.throughput_rps),
                   util::format_general(m.mean_latency_s),
                   util::format_general(m.p50_s),
                   util::format_general(m.p95_s),
                   util::format_general(m.p99_s),
                   util::format_general(m.mean_batch),
                   attached ? "pair-on" : "pair-off"});
      std::printf("obs %s: %.0f requests/wall-s (median of rotated runs)\n",
                  attached ? "pair-on " : "pair-off", rate);
    }
  }

  std::printf("\nFull sweep written to sim_speed_sweep.csv\n");
  return 0;
}
