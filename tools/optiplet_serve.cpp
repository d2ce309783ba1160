/// \file optiplet_serve.cpp
/// Command-line front end of the request-level serving simulator: declare
/// the tenant mix, offered-load points, and batching policies; evaluate
/// the (rates x policies x fidelities) serving grid on a worker pool; and
/// dump the tail-latency/throughput/energy columns as CSV.
///
/// Examples:
///   optiplet_serve --tenants LeNet5 --rates 500,1000,2000
///   optiplet_serve --tenants MobileNetV2,ResNet50 --rates 400
///       --policies none,deadline --max-batch 8 --max-wait 2e-3
///   optiplet_serve --tenants LeNet5 --rates 1000 --fidelity cycle
///   optiplet_serve --tenants DenseNet121 --rates 300
///       --fidelity sampled:windows=8,seed=1
///   optiplet_serve --tenants ResNet50,DenseNet121 --rates 300
///       --pipelines batch,layer
///   optiplet_serve --tenants LeNet5 --users 8,32,128 --think 5e-3
///   optiplet_serve --tenants ResNet50,DenseNet121 --priorities 0,1
///       --admission all,shed --rates 600
///   optiplet_serve --trace arrivals.csv --tenants LeNet5 --policies size
///   optiplet_serve --tenants TinyGPT --rates 50,100 --policies cont
///       --prefill-tokens 256 --decode-tokens 64 --kv-cache-mb 256
///   optiplet_serve --tenants LeNet5 --rates 500 --admission shed
///       --elastics static,shift=0.2/gate=1e-3:1e-4/bucket=3600
///       --curve-out day_curve.csv

#include <optional>
#include <string>

#include "sweep_cli.hpp"

namespace {

using namespace optiplet;
using cli::join;
using cli::split;

}  // namespace

int main(int argc, char** argv) {
  cli::ServingFlags flags;
  flags.out_path = "serve.csv";
  std::string curve_out;
  const cli::Logger& log = flags.log;

  cli::OptionSet options_set(
      "optiplet_serve",
      R"(optiplet_serve — request-level inference serving simulator

Serves a request stream against the 2.5D platform: open-loop (seeded
Poisson or replayed-trace) or closed-loop (client-pool) arrivals per
tenant, an admission/batching policy with optional SLA-aware shedding,
chiplet-pool partitioning between co-located tenants, and the
full-system simulator as the (memoized) batch service-time oracle.
Reports throughput, goodput, p50/p95/p99 latency, SLA violations, shed
counts, utilization, and energy per request.)");
  cli::add_serving_flags(options_set, flags)
      .add("--pipelines", "LIST",
           "comma list of " + util::choices<serve::PipelineMode>("|") +
               " execution granularities\n"
               "(default batch; layer = SET-style inter-layer\n"
               "pipelining with scarce-group handoff)",
           cli::append_choices(flags.grid.pipeline_modes, "pipeline mode"))
      .add("--think", "S",
           "closed-loop mean exponential think time [s]\n"
           "(default 1e-2)",
           cli::store(flags.grid.serving_defaults.think_s, "think time",
                      cli::Range::kNonNegative))
      .add("--priorities", "LIST",
           "comma list of per-tenant priority classes aligned\n"
           "with --tenants (lower = more important; default\n"
           "all 0); orders contended shared-resource grants",
           [&flags](const std::string& value) -> std::optional<std::string> {
             flags.grid.serving_defaults.priority_mix =
                 join(split(value, ','), "+");
             return std::nullopt;
           })
      .add("--curve-out", "FILE",
           "also run the first scenario and write its\n"
           "energy-per-request / carbon day curve as CSV\n"
           "(needs an elastic policy with bucket=<s>)",
           cli::store_string(curve_out));
  cli::add_log_flags(options_set, flags.log)
      .add_action("--list-models",
                  "print the model registry (name, family, params) and exit",
                  cli::list_models_action())
      .set_epilog("Value flags also accept the --flag=value spelling "
                  "(e.g. --rates=500).");
  if (const auto exit_code = options_set.parse(argc, argv)) {
    return *exit_code;
  }

  const engine::ScenarioGrid grid = flags.scenario_grid();
  engine::SweepRunner runner(core::default_system_config(),
                             cli::sweep_options(log, flags.threads));
  log.info("Running on %zu worker threads\n", runner.threads());
  engine::ResultStore store;
  try {
    store.add_all(runner.run(grid));
  } catch (const std::exception& e) {
    return options_set.fail(std::string("serving sweep failed: ") +
                            e.what());
  }
  if (store.empty()) {
    log.result("No feasible serving scenarios — nothing to report.\n");
    return 1;
  }

  util::TextTable table({"Load", "Policy", "Pipe", "Adm", "Fid",
                         "Thpt (r/s)", "Gput (r/s)", "Shed", "p50 (us)",
                         "p99 (us)", "SLA viol", "Util", "E/req (mJ)"});
  for (const auto& r : store.results()) {
    const auto& m = *r.serving;
    const auto& s = *r.spec.serving;
    table.add_row({cli::format_load(s), serve::to_string(s.policy),
                   serve::to_string(s.pipeline),
                   serve::to_string(s.admission),
                   core::to_string(r.spec.fidelity),
                   util::format_fixed(m.throughput_rps, 0),
                   util::format_fixed(m.goodput_rps, 0),
                   std::to_string(m.shed), cli::format_us(m.p50_s),
                   cli::format_us(m.p99_s),
                   util::format_fixed(m.sla_violation_rate, 3),
                   util::format_fixed(m.utilization, 3),
                   util::format_fixed(m.energy_per_request_j * 1e3, 3)});
  }
  log.result("Serving %s on %s, %zu scenarios (%zu threads)\n\n",
             grid.tenant_mixes.front().c_str(), accel::to_string(flags.arch),
             store.size(), runner.threads());
  log.result("%s", table.render().c_str());

  cli::log_profile(log, runner, store);
  if (!store.write_csv(flags.out_path)) {
    return options_set.fail("cannot write " + flags.out_path);
  }
  log.result("\nServing grid written to %s\n", flags.out_path.c_str());
  return cli::write_instrumented_run(options_set, flags,
                                     store.results().front().spec, curve_out);
}
