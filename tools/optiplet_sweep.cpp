/// \file optiplet_sweep.cpp
/// Command-line front end of the sweep engine: declare an arbitrary
/// scenario grid with flags, evaluate it on a worker pool, print the
/// per-architecture summary, and dump the full grid as CSV.
///
/// Examples:
///   optiplet_sweep --models LeNet5,VGG16 --archs all --out grid.csv
///   optiplet_sweep --wavelengths 16,32,64 --gateways 2,4
///       --modulations ook,pam4 --threads 4
///   optiplet_sweep --models DenseNet121 --fidelity sampled:windows=8,seed=1
///   optiplet_sweep --models LeNet5 --set resipi.epoch_s=5e-6,1e-5,2e-5
///   optiplet_sweep --list-overrides

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "sweep_cli.hpp"

namespace {

using namespace optiplet;
using cli::split;

/// Dump every scenario's per-layer breakdown (computed by the simulator on
/// each run, but unreachable from the CLI before this flag existed). Each
/// row leads with the scenario's spec columns, spelled as in the grid CSV.
bool write_per_layer_csv(const std::string& path,
                         const engine::ResultStore& store) {
  constexpr std::size_t kSpecColumns = 8;  // model through overrides
  std::vector<std::string> header = engine::ResultStore::csv_header();
  header.resize(kSpecColumns);
  header.insert(header.end(),
                {"layer_index", "group", "chiplets_used", "compute_s", "read_s",
                 "write_s", "overhead_s", "total_s", "gateways_active"});
  util::CsvWriter csv(path, header);
  if (!csv.ok()) {
    return false;
  }
  for (const auto& r : store.results()) {
    std::vector<std::string> spec_cells = engine::ResultStore::csv_row(r);
    spec_cells.resize(kSpecColumns);
    for (const auto& layer : r.run.layers) {
      std::vector<std::string> row = spec_cells;
      row.insert(row.end(), {std::to_string(layer.layer_index),
                             accel::to_string(layer.group),
                             std::to_string(layer.chiplets_used),
                             util::format_general(layer.compute_s),
                             util::format_general(layer.read_s),
                             util::format_general(layer.write_s),
                             util::format_general(layer.overhead_s),
                             util::format_general(layer.total_s),
                             std::to_string(layer.gateways_per_chiplet)});
      csv.add_row(row);
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  engine::ScenarioGrid grid;
  std::size_t threads = 0;
  std::string out_path = "sweep.csv";
  std::string per_layer_path;
  cli::Logger log;

  cli::OptionSet options_set(
      "optiplet_sweep",
      R"(optiplet_sweep — parallel scenario-grid evaluation

Every flag below adds one axis to a cartesian grid; unset axes keep the
Table-1 default configuration. Infeasible combinations (wavelengths not
divisible by gateways; SiPh link budget that cannot close) are skipped.)");
  options_set
      .add("--models", "NAMES",
           "comma list of registry models, or \"all\" (default all;\n"
           "see --list-models)",
           [&grid](const std::string& value) -> std::optional<std::string> {
             if (value == "all") {
               grid.models.clear();
               return std::nullopt;
             }
             return cli::store_model_list(grid.models)(value);
           })
      .add("--archs", "NAMES",
           "comma list of " + util::choices<accel::Architecture>("|") +
               ", or \"all\" (default siph)",
           [&grid](const std::string& value) -> std::optional<std::string> {
             if (value == "all") {
               grid.architectures.clear();
               for (const auto& row : accel::kArchitectureNames) {
                 grid.architectures.push_back(row.value);
               }
               return std::nullopt;
             }
             return cli::append_choices(grid.architectures, "architecture",
                                        "all")(value);
           })
      .add("--batch-sizes", "LIST", "comma list of batch sizes",
           cli::append(grid.batch_sizes, "batch size",
                       cli::Range::kPositive))
      .add("--wavelengths", "LIST", "comma list of WDM channel counts",
           cli::append(grid.wavelengths, "wavelength count",
                       cli::Range::kPositive))
      .add("--gateways", "LIST", "comma list of gateways per chiplet",
           cli::append(grid.gateways_per_chiplet, "gateway count",
                       cli::Range::kPositive))
      .add("--modulations", "LIST",
           "comma list of " + util::choices<photonics::ModulationFormat>("|"),
           cli::append_choices(grid.modulations, "modulation"))
      .add("--fidelity", "LIST", cli::fidelity_help(),
           cli::append_fidelities(grid.fidelities))
      .add("--set", "KEY=V1,V2,...",
           "sweep axis over a named SystemConfig override\n"
           "(repeatable; see --list-overrides)",
           [&grid](const std::string& value) -> std::optional<std::string> {
             const auto eq = value.find('=');
             if (eq == std::string::npos || eq == 0) {
               return "--set expects KEY=V1,V2,... got: " + value;
             }
             std::pair<std::string, std::vector<double>> axis;
             axis.first = value.substr(0, eq);
             for (const auto& text : split(value.substr(eq + 1), ',')) {
               const auto v = util::parse_number<double>(text);
               if (!v) {
                 return "bad override value for " + axis.first + ": " + text;
               }
               axis.second.push_back(*v);
             }
             grid.override_axes.push_back(std::move(axis));
             return std::nullopt;
           })
      .add("--threads", "N",
           "worker threads; must be a positive integer\n"
           "(default: hardware concurrency)",
           cli::store_threads(threads))
      .add("--out", "FILE", "output CSV path (default sweep.csv)",
           cli::store_string(out_path))
      .add("--per-layer", "FILE",
           "also dump the per-layer timing/provisioning\n"
           "breakdown of every scenario as CSV",
           cli::store_string(per_layer_path));
  cli::add_log_flags(options_set, log)
      .add_action("--list-models",
                  "print the model registry (name, family, params) and exit",
                  cli::list_models_action())
      .add_action("--list-overrides", "print the valid --set keys and exit",
                  [] {
                    for (const auto& key : engine::override_keys()) {
                      std::printf("%s\n", key.c_str());
                    }
                    return 0;
                  })
      .set_epilog("Value flags also accept the --flag=value spelling "
                  "(e.g. --fidelity=cycle).");
  if (const auto exit_code = options_set.parse(argc, argv)) {
    return *exit_code;
  }

  engine::SweepRunner runner(core::default_system_config(),
                             cli::sweep_options(log, threads));
  log.info("Running on %zu worker threads\n", runner.threads());
  engine::ResultStore store;
  try {
    store.add_all(runner.run(grid));
  } catch (const std::exception& e) {
    return options_set.fail(std::string("sweep failed: ") + e.what());
  }

  const std::size_t raw = grid.raw_size();
  log.result("Grid: %zu scenarios (%zu raw, %zu infeasible skipped), "
             "%zu threads, %zu simulated, %zu cache hits\n\n",
             store.size(), raw, raw - store.size(), runner.threads(),
             runner.cache_entries(), runner.cache_hits());
  if (store.empty()) {
    log.result("No feasible scenarios — nothing to report.\n");
    return 1;
  }

  util::TextTable summary(
      {"Architecture", "Runs", "Power (W)", "Latency (ms)", "EPB (pJ/bit)"});
  for (const auto& avg : store.by_architecture()) {
    std::size_t count = 0;
    for (const auto& r : store.results()) {
      count += accel::to_string(r.spec.arch) == avg.platform ? 1 : 0;
    }
    summary.add_row({avg.platform, std::to_string(count),
                     util::format_fixed(avg.power_w, 2),
                     util::format_fixed(avg.latency_s * 1e3, 4),
                     util::format_fixed(avg.epb_j_per_bit * 1e12, 1)});
  }
  log.result("%s", summary.render().c_str());

  const auto* fastest = store.best_by(
      [](const engine::ScenarioResult& r) { return r.run.latency_s; });
  const auto* greenest = store.best_by(
      [](const engine::ScenarioResult& r) { return r.run.epb_j_per_bit; });
  log.result("\nFastest scenario:  %s  (%.4f ms)\n",
             fastest->spec.key().c_str(), fastest->run.latency_s * 1e3);
  log.result("Lowest-EPB scenario: %s  (%.1f pJ/bit)\n",
             greenest->spec.key().c_str(),
             greenest->run.epb_j_per_bit * 1e12);

  cli::log_profile(log, runner, store);
  if (!store.write_csv(out_path)) {
    return options_set.fail("cannot write " + out_path);
  }
  log.result("\nFull grid written to %s\n", out_path.c_str());
  if (!per_layer_path.empty()) {
    if (!write_per_layer_csv(per_layer_path, store)) {
      return options_set.fail("cannot write " + per_layer_path);
    }
    log.result("Per-layer breakdown written to %s\n",
               per_layer_path.c_str());
  }
  return 0;
}
