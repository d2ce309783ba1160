/// \file optiplet_cluster.cpp
/// Command-line front end of the rack-scale cluster simulator: declare
/// the tenant mix and the rack shape (package count, balancer policy,
/// replication), evaluate the cluster grid on a worker pool, and dump
/// the rack throughput/tail-latency/transfer columns as CSV.
///
/// Examples:
///   optiplet_cluster --tenants LeNet5 --packages 1,2,4 --rates 2000
///   optiplet_cluster --tenants ResNet50,LeNet5 --packages 2
///       --balancers rr,least --replication-mix 1+2
///   optiplet_cluster --tenants LeNet5 --packages 4 --replication 4
///       --balancers locality --rates 4000
///   optiplet_cluster --tenants LeNet5 --packages 2
///       --fidelity sampled:windows=4,seed=7
///   optiplet_cluster --trace arrivals.csv --tenants LeNet5 --packages 2

#include <string>

#include "sweep_cli.hpp"

namespace {

using namespace optiplet;

}  // namespace

int main(int argc, char** argv) {
  cli::ServingFlags flags;
  flags.out_path = "cluster.csv";
  cluster::ClusterSpec& rack = flags.grid.cluster_defaults;
  rack.packages = 4;
  const cli::Logger& log = flags.log;

  cli::OptionSet options_set(
      "optiplet_cluster",
      R"(optiplet_cluster — multi-package rack serving simulator

Runs one shared arrival stream against a rack of N interposer packages
(each a full Table-1 chiplet pool wrapping its own serving simulator)
joined by board-level photonic links. A front-end load balancer picks
the serving replica per request; off-ingress requests pay the photonic
link-budget transfer cost. Reports the merged rack throughput, goodput,
tail latency, shed counts, transfer charges, and energy per request.

Each package runs the elastic policy on its own pool, and a
fault=t:c:d:p entry reaches only package p (p=-1 hits all). The
KV-cache budget caps concurrent decode slots per package. Packages
map to trace processes, and the metric series of package i carry a
p<i>. prefix.)");
  cli::add_serving_flags(options_set, flags)
      .add("--packages", "LIST",
           "comma list of rack package counts (default 4)",
           cli::append(flags.grid.package_counts, "package count",
                       cli::Range::kPositive))
      .add("--balancers", "LIST",
           "comma list of " + util::choices<cluster::BalancerPolicy>("|") +
               " (default locality)",
           cli::append_choices(flags.grid.balancer_policies,
                               "balancer policy"))
      .add("--replication", "LIST",
           "comma list of replicas per tenant, each clamped to\n"
           "the package count (default 1)",
           cli::append(flags.grid.replication_factors, "replication factor",
                       cli::Range::kPositive))
      .add("--replication-mix", "M",
           "'+'-joined per-tenant replication factors aligned\n"
           "with --tenants (e.g. 1+2); overrides --replication",
           cli::store_string(rack.replication_mix))
      .add("--link-length", "M",
           "board-level link length between packages [m]\n"
           "(default 0.25)",
           cli::store(rack.link_length_m, "link length",
                      cli::Range::kPositive))
      .add("--link-wavelengths", "N",
           "WDM channels per inter-package link (default 16)",
           cli::store(rack.link_wavelengths, "link wavelength count",
                      cli::Range::kPositive));
  cli::add_log_flags(options_set, flags.log)
      .add_action("--list-models",
                  "print the model registry (name, family, params) and exit",
                  cli::list_models_action())
      .set_epilog("Value flags also accept the --flag=value spelling "
                  "(e.g. --packages=1,4).");
  if (const auto exit_code = options_set.parse(argc, argv)) {
    return *exit_code;
  }

  engine::ScenarioGrid grid = flags.scenario_grid();
  if (grid.package_counts.empty()) {
    // A package-count axis is what turns the grid into racks.
    grid.package_counts = {rack.packages};
  }
  engine::SweepRunner runner(core::default_system_config(),
                             cli::sweep_options(log, flags.threads));
  log.info("Running on %zu worker threads\n", runner.threads());
  engine::ResultStore store;
  try {
    store.add_all(runner.run(grid));
  } catch (const std::exception& e) {
    return options_set.fail(std::string("cluster sweep failed: ") +
                            e.what());
  }
  if (store.empty()) {
    log.result("No feasible cluster scenarios — nothing to report.\n");
    return 1;
  }

  util::TextTable table({"Pkgs", "Balancer", "Rep", "Load", "Thpt (r/s)",
                         "Gput (r/s)", "Shed", "p99 (us)", "Xfers",
                         "Xfer E (mJ)", "E/req (mJ)"});
  for (const auto& r : store.results()) {
    const auto& m = *r.serving;
    const auto& c = *r.cluster;
    const auto& cs = *r.spec.cluster;
    table.add_row({std::to_string(cs.packages),
                   cluster::to_string(cs.balancer),
                   cs.replication_mix.empty()
                       ? std::to_string(cs.replication)
                       : cs.replication_mix,
                   cli::format_load(*r.spec.serving),
                   util::format_fixed(m.throughput_rps, 0),
                   util::format_fixed(m.goodput_rps, 0),
                   std::to_string(m.shed), cli::format_us(m.p99_s),
                   std::to_string(c.transfers),
                   util::format_fixed(c.transfer_energy_j * 1e3, 3),
                   util::format_fixed(m.energy_per_request_j * 1e3, 3)});
  }
  log.result("Rack serving %s on %s, %zu scenarios (%zu threads)\n\n",
             grid.tenant_mixes.front().c_str(), accel::to_string(flags.arch),
             store.size(), runner.threads());
  log.result("%s", table.render().c_str());

  cli::log_profile(log, runner, store);
  if (!store.write_csv(flags.out_path)) {
    return options_set.fail("cannot write " + flags.out_path);
  }
  log.result("\nCluster grid written to %s\n", flags.out_path.c_str());
  return cli::write_instrumented_run(options_set, flags,
                                     store.results().front().spec);
}
