#pragma once
/// \file sweep_cli.hpp
/// Front-end pieces the sweep CLIs share, each defined once:
///  * for optiplet_sweep, optiplet_serve and optiplet_cluster, the
///    progress hook that follows the log level and the self-profiling
///    footer;
///  * for optiplet_serve and optiplet_cluster, the common serving flags
///    with the grid they fill, and the instrumented re-run that writes the
///    trace, metric-snapshot and day-curve files.

#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "cli_support.hpp"
#include "cluster/cluster_simulator.hpp"
#include "engine/result_store.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/recorder.hpp"
#include "serve/serving_simulator.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace optiplet::cli {

/// Sweep options whose progress reporting follows the log level: a \r
/// meter on stderr at info, one line per scenario key at debug, nothing
/// when quiet.
inline engine::SweepOptions sweep_options(const Logger& log,
                                          std::size_t threads) {
  engine::SweepOptions options;
  options.threads = threads;
  if (log.debug_enabled()) {
    // Per-scenario lines replace the \r meter (they would interleave).
    options.scenario_progress = [&log](const engine::ScenarioProgress& p) {
      if (p.from_cache) {
        log.debug("[%zu/%zu] %s  (cache)\n", p.done, p.total, p.key.c_str());
      } else {
        log.debug("[%zu/%zu] %s  %.3f s\n", p.done, p.total, p.key.c_str(),
                  p.wall_s);
      }
    };
  } else if (log.info_enabled()) {
    options.scenario_progress = [](const engine::ScenarioProgress& p) {
      std::fprintf(stderr, "\r%zu/%zu scenarios", p.done, p.total);
      if (p.done == p.total) {
        std::fputc('\n', stderr);
      }
    };
  }
  return options;
}

/// Self-profiling footer at info level: where the evaluation wall-clock
/// went and how the memo layers behaved (the per-scenario columns land in
/// the CSV).
inline void log_profile(const Logger& log, const engine::SweepRunner& runner,
                        const engine::ResultStore& store) {
  if (!log.info_enabled()) {
    return;
  }
  double eval_wall_s = 0.0;
  bool serving = false;
  std::uint64_t sim_events = 0;
  std::uint64_t oracle_hits = 0;
  std::uint64_t oracle_misses = 0;
  const engine::ScenarioResult* slowest = nullptr;
  for (const auto& r : store.results()) {
    if (r.from_cache) {
      continue;
    }
    eval_wall_s += r.eval_wall_s;
    if (slowest == nullptr || r.eval_wall_s > slowest->eval_wall_s) {
      slowest = &r;
    }
    if (r.serving) {
      serving = true;
      sim_events += r.serving->sim_events;
      oracle_hits += r.serving->service_cache_hits;
      oracle_misses += r.serving->service_cache_misses;
    }
  }
  log.info("\nProfile: %zu simulated + %zu memoized scenarios, %.2f s "
           "eval wall",
           runner.cache_entries(), runner.cache_hits(), eval_wall_s);
  if (serving) {
    log.info(", %llu sim events, oracle cache %llu hits / %llu misses",
             static_cast<unsigned long long>(sim_events),
             static_cast<unsigned long long>(oracle_hits),
             static_cast<unsigned long long>(oracle_misses));
  }
  log.info("\n");
  if (slowest != nullptr) {
    log.info("Slowest scenario: %s (%.2f s)\n", slowest->spec.key().c_str(),
             slowest->eval_wall_s);
  }
}

/// Seconds as microseconds with one decimal, for the result tables.
inline std::string format_us(double seconds) {
  return util::format_fixed(seconds * 1e6, 1);
}

/// The load knob of a serving spec, for the result tables: the offered
/// rate in open loop, the user-pool size in closed loop.
inline std::string format_load(const serve::ServingSpec& spec) {
  return spec.source == serve::ArrivalSource::kClosedLoop
             ? std::to_string(spec.users) + "u"
             : util::format_fixed(spec.arrival_rps, 0);
}

/// What the flags optiplet_serve and optiplet_cluster share fill in.
struct ServingFlags {
  engine::ScenarioGrid grid;
  std::vector<std::string> tenants = {"LeNet5"};
  accel::Architecture arch = accel::Architecture::kSiph2p5D;
  std::size_t threads = 0;
  std::string out_path;  ///< the tool sets its default before registering
  std::string trace_out;
  std::string metrics_out;
  double snapshot_period_s = 0.0;
  Logger log;

  /// The grid to run: the tenant mix on the chosen architecture, where a
  /// users axis without a sources axis means closed loop (the only source
  /// that axis is meaningful for).
  [[nodiscard]] engine::ScenarioGrid scenario_grid() const {
    engine::ScenarioGrid out = grid;
    out.architectures = {arch};
    out.tenant_mixes = {join(tenants, "+")};
    if (out.arrival_sources.empty() && !out.user_counts.empty()) {
      out.arrival_sources = {serve::ArrivalSource::kClosedLoop};
    }
    return out;
  }
};

/// Register the serving flags optiplet_serve and optiplet_cluster share.
inline OptionSet& add_serving_flags(OptionSet& options, ServingFlags& flags) {
  engine::ScenarioGrid& grid = flags.grid;
  serve::ServingSpec& defaults = grid.serving_defaults;
  return options
      .add("--tenants", "NAMES",
           "comma list of co-located registry models\n"
           "(default LeNet5; see --list-models)",
           store_model_list(flags.tenants))
      .add("--rates", "LIST",
           "comma list of aggregate offered loads [requests/s]\n"
           "(default 200; split evenly over the tenants;\n"
           "open-loop only)",
           append(grid.arrival_rates_rps, "arrival rate", Range::kPositive))
      .add("--policies", "LIST",
           "comma list of " + util::choices<serve::BatchPolicy>("|") +
               " (default none;\n"
               "cont = continuous batching at token boundaries,\n"
               "transformer tenants only)",
           append_choices(grid.batch_policies, "batch policy"))
      .add("--sources", "LIST",
           "comma list of " + util::choices<serve::ArrivalSource>("|") +
               " arrival sources\n"
               "(default open; closed = N users per tenant issuing\n"
               "one request each, thinking between responses)",
           append_choices(grid.arrival_sources, "arrival source"))
      .add("--users", "LIST",
           "comma list of closed-loop users per tenant\n"
           "(default 16; implies --sources closed when\n"
           "--sources is not given)",
           append(grid.user_counts, "user count", Range::kPositive))
      .add("--admission", "LIST",
           "comma list of " + util::choices<serve::AdmissionPolicy>("|") +
               " (default all; shed rejects\n"
               "arrivals whose predicted completion misses the SLA)",
           append_choices(grid.admission_policies, "admission policy"))
      .add("--prefill-tokens", "LIST",
           "comma list of mean prompt lengths [tokens]; any\n"
           "positive value switches transformer tenants to\n"
           "variable-length prefill/decode pricing (default 0 =\n"
           "fixed-shape requests)",
           append(grid.prefill_token_counts, "prefill tokens",
                  Range::kPositive))
      .add("--decode-tokens", "LIST",
           "comma list of mean generated lengths [tokens]; 0 =\n"
           "pure prefill (default 0; requires --prefill-tokens)",
           append(grid.decode_token_counts, "decode tokens"))
      .add("--token-spread", "X",
           "relative half-width of the per-request uniform\n"
           "token-length draw, in [0,1); 0 = every request uses\n"
           "the mean lengths exactly (default 0)",
           store(defaults.token_spread, "token spread", Range::kNonNegative))
      .add("--kv-cache-mb", "MB",
           "per-tenant KV-cache activation budget [MiB]; caps\n"
           "concurrent decode slots (default 256)",
           store(defaults.kv_cache_mb, "KV-cache budget", Range::kPositive))
      .add("--elastics", "LIST",
           "comma list of elastic-operation policies as\n"
           "'/'-joined k=v codec strings (\"static\",\n"
           "\"shift=0.2/tau=60\", \"gate=1e-3:1e-4\",\n"
           "\"retry=4:2e-3\", \"fault=1.0:2:1:-1\",\n"
           "\"bucket=3600/carbon=400:0.5:86400\"; see\n"
           "docs/elastic-operation.md; default static)",
           [&grid](const std::string& value) -> std::optional<std::string> {
             for (const std::string& part : split(value, ',')) {
               if (!serve::elastic_from_string(part)) {
                 return "unparseable elastic policy: " + part;
               }
               grid.elastic_policies.push_back(part);
             }
             return std::nullopt;
           })
      .add("--max-batch", "K",
           "batch bound for size/deadline/cont policies (default 8)",
           store(defaults.max_batch, "max batch", Range::kPositive))
      .add("--max-wait", "S",
           "deadline policy: max queue wait [s] (default 1e-3)",
           store(defaults.max_wait_s, "max wait", Range::kNonNegative))
      .add("--requests", "N", "total arrivals across tenants (default 2000)",
           store(defaults.requests, "request count", Range::kPositive))
      .add("--seed", "S", "arrival-process seed (default 42)",
           store(defaults.seed, "seed"))
      .add("--sla", "S",
           "latency SLA [s]; 0 derives 10x the batch-1 service\n"
           "time per tenant (default 0)",
           store(defaults.sla_s, "SLA", Range::kNonNegative))
      .add("--trace", "FILE",
           "replay a CSV arrival trace (arrival_s[,tenant])\n"
           "instead of Poisson arrivals (see optiplet_tracegen)",
           store_string(defaults.trace_path))
      .add("--arch", "NAME",
           util::choices<accel::Architecture>("|") + " (default siph)",
           store_choice(flags.arch, "architecture"))
      .add("--fidelity", "LIST", fidelity_help(),
           append_fidelities(grid.fidelities))
      .add("--threads", "N",
           "worker threads; must be a positive integer\n"
           "(default: hardware concurrency)",
           store_threads(flags.threads))
      .add("--out", "FILE", "output CSV path (default " + flags.out_path + ")",
           store_string(flags.out_path))
      .add("--trace-out", "FILE",
           "also run the first scenario with request-lifecycle\n"
           "tracing and write a Chrome trace-event / Perfetto\n"
           "JSON (see docs/observability.md)",
           store_string(flags.trace_out))
      .add("--metrics-out", "FILE",
           "also run the first scenario with metric snapshots\n"
           "and write the long-format time series CSV\n"
           "(t_s,series,value)",
           store_string(flags.metrics_out))
      .add("--snapshot-period", "S",
           "sim-time between metric snapshots [s] (default:\n"
           "~64 snapshots across the arrival span)",
           store(flags.snapshot_period_s, "snapshot period",
                 Range::kPositive));
}

/// Re-run one scenario (the grid's first) with a recorder attached and
/// write the files the flags ask for: the day curve to `curve_out` when it
/// is set, the trace, the metric snapshots. The grid results and CSV stay
/// untouched (a recorder never changes simulation results, and the
/// separate run keeps the sweep's wall-clock honest when tracing is off).
/// A rack scenario runs through cluster::simulate, a lone one through
/// serve::simulate. Returns the tool's exit code.
inline int write_instrumented_run(const OptionSet& options,
                                  const ServingFlags& flags,
                                  const engine::ScenarioSpec& spec,
                                  const std::string& curve_out = {}) {
  if (flags.trace_out.empty() && flags.metrics_out.empty() &&
      curve_out.empty()) {
    return 0;
  }
  obs::RecorderOptions recorder_options;
  recorder_options.trace = !flags.trace_out.empty();
  recorder_options.metrics = !flags.metrics_out.empty();
  recorder_options.snapshot_period_s = flags.snapshot_period_s;
  obs::Recorder recorder(recorder_options);
  core::SystemConfig cfg = core::default_system_config();
  spec.apply(cfg);
  std::vector<serve::DayPoint> day_curve;
  try {
    if (spec.cluster) {
      const cluster::ClusterConfig config{cfg,          spec.arch,
                                          *spec.serving, *spec.cluster,
                                          /*threads=*/1, &recorder};
      day_curve = cluster::simulate(config).day_curve;
    } else {
      serve::ServingConfig config =
          serve::make_serving_config(cfg, spec.arch, *spec.serving);
      config.recorder = &recorder;
      day_curve = serve::simulate(config).day_curve;
    }
  } catch (const std::exception& e) {
    return options.fail(std::string("instrumented run failed: ") + e.what());
  }
  const Logger& log = flags.log;
  if (!curve_out.empty()) {
    if (day_curve.empty()) {
      log.info("Warning: no day curve recorded — the elastic policy "
               "needs bucket=<s> (see --elastics)\n");
    }
    util::CsvWriter csv(curve_out,
                        {"t0_s", "dt_s", "offered", "completed", "energy_j",
                         "energy_per_request_j", "carbon_g"});
    if (!csv.ok()) {
      return options.fail("cannot write " + curve_out);
    }
    for (const serve::DayPoint& point : day_curve) {
      csv.add_row({util::format_general(point.t0_s),
                   util::format_general(point.dt_s),
                   std::to_string(point.offered),
                   std::to_string(point.completed),
                   util::format_general(point.energy_j),
                   util::format_general(point.energy_per_request_j),
                   util::format_general(point.carbon_g)});
    }
    log.result("Day curve of %s (%zu buckets) written to %s\n",
               spec.key().c_str(), day_curve.size(), curve_out.c_str());
  }
  if (!flags.trace_out.empty()) {
    if (!recorder.trace().write_json(flags.trace_out)) {
      return options.fail("cannot write " + flags.trace_out);
    }
    log.result("Trace of %s (%zu spans) written to %s\n", spec.key().c_str(),
               recorder.trace().size(), flags.trace_out.c_str());
  }
  if (!flags.metrics_out.empty()) {
    if (!recorder.metrics().write_csv(flags.metrics_out)) {
      return options.fail("cannot write " + flags.metrics_out);
    }
    log.result("Metric snapshots of %s (%zu series) written to %s\n",
               spec.key().c_str(), recorder.metrics().series_count(),
               flags.metrics_out.c_str());
  }
  return 0;
}

}  // namespace optiplet::cli
