#include "layer_probes.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "accel/mapper.hpp"
#include "accel/platform.hpp"
#include "cluster/cluster_scheduler.hpp"
#include "cluster/load_balancer.hpp"
#include "core/fidelity.hpp"
#include "core/system_simulator.hpp"
#include "dnn/transformer.hpp"
#include "dnn/workload.hpp"
#include "noc/photonic_cycle_net.hpp"
#include "noc/photonic_interposer.hpp"
#include "serve/serving_report.hpp"

namespace optiplet::perfbench {

namespace {

/// One distinct full-system run: the simulator config and the model it
/// runs (phase graphs built up front so only the run is timed).
struct CorePoint {
  core::SystemConfig config;
  dnn::Model model;
};

}  // namespace

CoreProbe probe_core(const std::vector<OraclePlan>& plans,
                     accel::Architecture arch, SpanTrace& trace,
                     double budget_s) {
  std::vector<CorePoint> points;
  std::set<std::tuple<std::string, std::size_t, std::size_t, int, unsigned,
                      std::uint32_t, std::size_t, std::string>>
      seen;
  for (const OraclePlan& plan : plans) {
    // Decode steps price at the oracle's KV bucket, not the raw length.
    const serve::ServiceTimeOracle bucketing(plan.tenants, arch);
    for (const OraclePlan::Point& p : plan.points) {
      if (p.lookup == Lookup::kLayerSchedule) {
        continue;  // the schedule is built from the batch run's result
      }
      const auto& tenant = plan.tenants[p.tenant];
      const std::uint32_t tokens = p.lookup == Lookup::kDecode
                                       ? bucketing.kv_bucket(p.tenant, p.tokens)
                                       : p.tokens;
      const auto key = std::make_tuple(
          tenant.model.name(), plan.tenants.size(), p.tenant,
          static_cast<int>(p.lookup), p.batch, tokens,
          tenant.config.photonic.total_wavelengths,
          core::to_string(tenant.config.fidelity));
      if (!seen.insert(key).second) {
        continue;
      }
      CorePoint point{tenant.config, tenant.model};
      point.config.batch_size = p.batch;
      if (p.lookup == Lookup::kPrefill) {
        point.model = dnn::make_prefill_graph(*tenant.transformer, tokens);
      } else if (p.lookup == Lookup::kDecode) {
        point.model = dnn::make_decode_graph(*tenant.transformer, tokens);
      }
      points.push_back(std::move(point));
    }
  }
  if (points.empty()) {
    throw std::runtime_error("core probe has no points");
  }
  double busy = 0.0;
  do {
    for (const CorePoint& point : points) {
      const auto t0 = Clock::now();
      {
        const auto span = trace.span("core.run");
        (void)core::SystemSimulator(point.config).run(point.model, arch);
      }
      busy += seconds_since(t0);
    }
  } while (busy < budget_s);
  return {median(trace.durations_s("core.run")), points.size()};
}

double probe_cycle_net(const serve::ServiceTimeOracle::Tenant& tenant,
                       SpanTrace& trace, double budget_s) {
  const core::SystemConfig& cfg = tenant.config;
  const accel::Platform platform(cfg.compute_2p5d, cfg.tech);
  const dnn::Workload work =
      dnn::compute_workload(tenant.model, cfg.parameter_bits);
  const std::vector<accel::LayerAssignment> assignments =
      accel::map_layers(work, platform);
  core::FidelitySpec sampled(core::Fidelity::kSampled);
  sampled.windows = 8;
  sampled.seed = 3;
  const std::vector<bool> mask =
      core::sampled_layer_mask(work.layers.size(), sampled, 1);

  noc::PhotonicCycleNetConfig net_cfg;
  net_cfg.interposer = cfg.photonic;
  net_cfg.resipi = cfg.resipi;
  net_cfg.chiplet_count = platform.total_chiplets();

  std::uint64_t cycles = 0;
  double busy = 0.0;
  do {
    noc::PhotonicCycleNet net(net_cfg, cfg.tech.photonic);
    const auto t0 = Clock::now();
    {
      const auto span = trace.span("noc.cycle_net");
      // Inject each sampled layer the way the full-system simulator does:
      // weights striped over the assigned chiplets, inputs broadcast once,
      // outputs written back per chiplet.
      for (std::size_t i = 0; i < work.layers.size(); ++i) {
        if (!mask[i]) {
          continue;
        }
        const dnn::LayerWork& lw = work.layers[i];
        const accel::LayerAssignment& a = assignments[i];
        std::size_t first = 0;
        for (const auto& group : platform.groups()) {
          if (group.chiplet.kind() == a.group) {
            break;
          }
          first += group.chiplet_count;
        }
        std::vector<std::size_t> targets;
        for (std::size_t c = 0; c < a.chiplets_used; ++c) {
          targets.push_back(first + c);
        }
        const std::uint64_t weight_slice =
            (lw.weight_bits + a.chiplets_used - 1) / a.chiplets_used;
        const std::uint64_t write_slice =
            (lw.output_bits + a.chiplets_used - 1) / a.chiplets_used;
        for (const std::size_t t : targets) {
          if (weight_slice > 0) {
            net.inject_read(t, weight_slice);
          }
          if (write_slice > 0) {
            net.inject_write(t, write_slice);
          }
        }
        if (lw.input_bits > 0) {
          net.inject_broadcast(targets, lw.input_bits);
        }
        if (!net.run_until_drained(1'000'000'000)) {
          throw std::runtime_error("cycle net failed to drain a layer");
        }
      }
    }
    busy += seconds_since(t0);
    cycles += net.cycle();
  } while (busy < budget_s);
  return static_cast<double>(cycles) / busy;
}

double probe_interposer(const serve::ServiceTimeOracle::Tenant& tenant,
                        SpanTrace& trace, double budget_s) {
  const core::SystemConfig& cfg = tenant.config;
  const noc::PhotonicInterposer interposer(cfg.photonic, cfg.tech.photonic);
  const double bandwidth_bps =
      interposer.swsr_bandwidth_bps(cfg.photonic.gateways_per_chiplet);
  const dnn::Workload work =
      dnn::compute_workload(tenant.model, cfg.parameter_bits);
  std::uint64_t calls = 0;
  double latency_sum_s = 0.0;
  double busy = 0.0;
  do {
    const auto t0 = Clock::now();
    {
      const auto span = trace.span("noc.interposer");
      for (int pass = 0; pass < 4096; ++pass) {
        for (const dnn::LayerWork& lw : work.layers) {
          latency_sum_s += interposer.transfer_latency_s(
              lw.weight_bits + lw.input_bits, bandwidth_bps);
          latency_sum_s +=
              interposer.transfer_latency_s(lw.output_bits, bandwidth_bps);
          calls += 2;
        }
      }
    }
    busy += seconds_since(t0);
  } while (busy < budget_s);
  if (!(latency_sum_s > 0.0)) {
    throw std::runtime_error("interposer probe priced nothing");
  }
  return static_cast<double>(calls) / busy;
}

double probe_link_budget(const Workload& w, const Prepared& prepared,
                         SpanTrace& trace, double budget_s) {
  std::vector<core::SystemConfig> shapes;
  std::set<std::tuple<std::size_t, std::size_t, int>> seen;
  for (const engine::ScenarioSpec& spec : prepared.specs) {
    const auto shape =
        std::make_tuple(spec.wavelengths, spec.gateways_per_chiplet,
                        static_cast<int>(spec.modulation));
    if (seen.insert(shape).second) {
      shapes.push_back(scenario_config(w, spec));
    }
  }
  std::uint64_t evals = 0;
  std::uint64_t feasible = 0;
  double busy = 0.0;
  do {
    const auto t0 = Clock::now();
    {
      const auto span = trace.span("photonics.link_budget");
      for (int pass = 0; pass < 32; ++pass) {
        for (const core::SystemConfig& cfg : shapes) {
          const noc::PhotonicInterposer probe(cfg.photonic,
                                              cfg.tech.photonic);
          feasible += probe.link_budget_feasible() ? 1 : 0;
          ++evals;
        }
      }
    }
    busy += seconds_since(t0);
  } while (busy < budget_s);
  if (feasible != evals) {
    throw std::runtime_error("a workload interposer shape is infeasible");
  }
  return static_cast<double>(evals) / busy;
}

double probe_quantiles(const std::vector<std::vector<double>>& pooled,
                       SpanTrace& trace, double budget_s) {
  double sink = 0.0;
  double busy = 0.0;
  std::vector<double> merges;
  do {
    const auto t0 = Clock::now();
    {
      const auto span = trace.span("cluster.quantile");
      for (const std::vector<double>& sample : pooled) {
        for (const double q : {0.50, 0.95, 0.99, 0.99, 0.99}) {
          sink += serve::exact_quantile(sample, q);
        }
      }
    }
    merges.push_back(seconds_since(t0));
    busy += merges.back();
  } while (busy < budget_s);
  if (!(sink > 0.0)) {
    throw std::runtime_error("quantile probe saw no latencies");
  }
  return median(merges);
}

double probe_route(const Workload& w, const Prepared& prepared,
                   SpanTrace& trace, double budget_s) {
  struct Stream {
    cluster::ClusterSpec spec;
    cluster::Placement placement;
    std::size_t tenants = 0;
    std::uint64_t requests = 0;
  };
  std::vector<Stream> streams;
  for (const engine::ScenarioSpec& spec : prepared.specs) {
    const std::vector<std::string> models = spec.serving->tenants();
    Stream stream;
    stream.spec = spec.cluster.value_or(cluster::ClusterSpec{});
    stream.placement = cluster::place_tenants(
        stream.spec, scenario_config(w, spec), w.arch, models,
        std::vector<double>(models.size(), 1.0));
    stream.tenants = models.size();
    stream.requests = spec.serving->requests;
    streams.push_back(std::move(stream));
  }
  std::uint64_t routes = 0;
  double busy = 0.0;
  do {
    const auto t0 = Clock::now();
    {
      const auto span = trace.span("cluster.route");
      for (const Stream& stream : streams) {
        // Route cost depends on the policy and replica count, not on the
        // arrival times, so tenants simply interleave.
        cluster::LoadBalancer balancer(
            stream.spec.balancer, stream.placement,
            std::vector<double>(stream.tenants, 1.0));
        const std::size_t packages = stream.spec.packages;
        for (std::uint64_t k = 0; k < stream.requests; ++k) {
          (void)balancer.route(k % stream.tenants, k % packages);
        }
        routes += stream.requests;
      }
    }
    busy += seconds_since(t0);
  } while (busy < budget_s);
  return static_cast<double>(routes) / busy;
}

}  // namespace optiplet::perfbench
