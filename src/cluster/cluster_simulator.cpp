#include "cluster/cluster_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/load_balancer.hpp"
#include "cluster/package_link.hpp"
#include "dnn/workload.hpp"
#include "dnn/zoo.hpp"
#include "engine/thread_pool.hpp"
#include "obs/recorder.hpp"
#include "serve/arrivals.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace optiplet::cluster {

namespace {

/// Seed offset between replicas of one closed-loop tenant, so replica
/// think-time streams are independent while replica 0 keeps the exact
/// single-package stream (N=1 degeneracy).
constexpr std::uint64_t kReplicaSeedStride = 7919;

/// One arrival of the merged cluster-wide stream.
struct ArrivalEvent {
  double time_s = 0.0;
  std::size_t tenant = 0;
  std::uint64_t seq = 0;
  /// Token geometry assigned at the front end (variable-length tenants
  /// only): the shape must follow the request to whichever replica serves
  /// it, and a 1-package rack must reproduce the lone simulator's draw
  /// stream bit-for-bit.
  serve::RequestShape shape;
};

/// Per-tenant solo batch-1 service times — the balancer's expected-work
/// weights — computed through the exact partition + oracle path the
/// simulator uses, memoized per distinct model.
std::vector<double> service_weights(const ClusterConfig& config,
                                    const serve::ServingConfig& whole) {
  std::map<std::string, double> by_model;
  std::vector<double> weights;
  weights.reserve(whole.tenants.size());
  for (const auto& tenant : whole.tenants) {
    auto it = by_model.find(tenant.model);
    if (it == by_model.end()) {
      serve::ColocatedSetup solo = serve::make_colocated_setup(
          config.system, config.arch, {tenant.model});
      serve::ServiceTimeOracle oracle(std::move(solo.oracle_tenants),
                                      config.arch);
      it = by_model.emplace(tenant.model, oracle.batch_run(0, 1).latency_s)
               .first;
    }
    weights.push_back(it->second);
  }
  return weights;
}

}  // namespace

ClusterReport simulate(const ClusterConfig& config) {
  const ClusterSpec& spec = config.cluster;
  const std::size_t packages = spec.packages;
  OPTIPLET_REQUIRE(packages >= 1, "cluster needs at least one package");

  // Resolve the cluster-wide tenant list exactly as a lone simulator
  // would (names, load split, seeds, trace partitioning) — the front end
  // then shards these authoritative streams.
  const serve::ServingConfig whole =
      serve::make_serving_config(config.system, config.arch, config.serving);
  const std::size_t n = whole.tenants.size();

  std::vector<std::string> models;
  std::vector<double> pool_weights;
  for (const auto& tenant : whole.tenants) {
    models.push_back(tenant.model);
    pool_weights.push_back(tenant.weight);
  }
  Placement placement =
      place_tenants(spec, config.system, config.arch, models, pool_weights);

  const PackageLink link = make_package_link(spec, config.system.photonic,
                                             config.system.tech.photonic);
  // Payload of one request/response crossing a link: the model's first
  // layer consumes the request tensor, the last layer emits the response.
  std::vector<std::uint64_t> request_bits(n, 0);
  std::vector<std::uint64_t> response_bits(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    const dnn::Workload workload = dnn::compute_workload(
        dnn::zoo::by_name(models[t]), config.system.parameter_bits);
    request_bits[t] = workload.layers.front().input_bits;
    response_bits[t] = workload.layers.back().output_bits;
  }

  LoadBalancer balancer(spec.balancer, placement,
                        service_weights(config, whole));

  ClusterReport out;
  ClusterMetrics& metrics = out.metrics;
  metrics.packages = packages;

  const bool closed =
      whole.tenants.front().source == serve::ArrivalSource::kClosedLoop;

  // Frontend observability: inter-package hops live on their own
  // pseudo-process, one pid past the last package, so package pids keep
  // matching package indices.
  obs::Recorder* const rec = config.recorder;
  const int frontend_pid = static_cast<int>(packages);
  std::uint64_t frontend_track = 0;
  if (rec != nullptr && rec->tracing()) {
    rec->trace().set_process_name(frontend_pid, "frontend");
    frontend_track = rec->trace().track(frontend_pid, "links");
  }

  // --- front-end dispatch (deterministic, pre-simulation) ---
  const auto charge_transfer = [&](std::size_t tenant, std::uint64_t count) {
    metrics.transfers += count;
    metrics.transfer_latency_s +=
        static_cast<double>(count) *
        (link.transfer_latency_s(request_bits[tenant]) +
         link.transfer_latency_s(response_bits[tenant]));
    metrics.transfer_energy_j +=
        static_cast<double>(count) *
        (link.transfer_energy_j(request_bits[tenant]) +
         link.transfer_energy_j(response_bits[tenant]));
    if (rec != nullptr && rec->metering()) {
      rec->metrics().add("cluster.transfers", static_cast<double>(count));
      rec->metrics().add(
          "cluster.transfer_bytes",
          static_cast<double>(count) *
              static_cast<double>(request_bits[tenant] +
                                  response_bits[tenant]) /
              8.0);
    }
  };

  // Open loop: per-(package, tenant) routed arrivals, each time paired
  // with its request shape so sorting by service time keeps the two
  // aligned.
  using RoutedArrival = std::pair<double, serve::RequestShape>;
  std::vector<std::vector<std::vector<RoutedArrival>>> arrivals(
      packages, std::vector<std::vector<RoutedArrival>>(n));
  // Closed loop: per-(package, tenant) user counts / issue budgets.
  std::vector<std::vector<unsigned>> users(packages,
                                           std::vector<unsigned>(n, 0));
  std::vector<std::vector<std::uint64_t>> budgets(
      packages, std::vector<std::uint64_t>(n, 0));
  std::vector<std::vector<std::uint64_t>> remote_users(
      packages, std::vector<std::uint64_t>(n, 0));

  if (!closed) {
    std::vector<ArrivalEvent> events;
    for (std::size_t t = 0; t < n; ++t) {
      const auto& setup = whole.tenants[t];
      const std::vector<double> stream =
          setup.replay_trace
              ? setup.trace_arrivals
              : serve::poisson_arrivals(setup.arrival_rps, setup.requests,
                                        setup.seed);
      // The front end fixes each request's token geometry before routing:
      // replayed shapes verbatim, otherwise the same seeded draw stream
      // the lone simulator would produce (see serve::draw_request_shape).
      const bool var = setup.prefill_tokens > 0;
      util::Xoshiro256 shape_rng(setup.seed ^ 0x746f6b656eULL);
      for (std::uint64_t k = 0; k < stream.size(); ++k) {
        serve::RequestShape shape;
        if (!setup.trace_shapes.empty()) {
          shape = setup.trace_shapes[k];
        } else if (var) {
          shape = serve::draw_request_shape(setup.prefill_tokens,
                                            setup.decode_tokens,
                                            setup.token_spread, shape_rng);
        }
        events.push_back({stream[k], t, k, shape});
      }
    }
    std::sort(events.begin(), events.end(),
              [](const ArrivalEvent& a, const ArrivalEvent& b) {
                return std::tie(a.time_s, a.tenant, a.seq) <
                       std::tie(b.time_s, b.tenant, b.seq);
              });
    std::uint64_t port = 0;
    for (const ArrivalEvent& event : events) {
      const std::size_t ingress = port++ % packages;
      const std::size_t package = balancer.route(event.tenant, ingress);
      double at = event.time_s;
      if (package != ingress) {
        // The request rides the photonic link to its replica; the
        // response rides back. Only the forward hop delays service.
        at += link.transfer_latency_s(request_bits[event.tenant]);
        charge_transfer(event.tenant, 1);
        if (rec != nullptr && rec->tracing()) {
          rec->trace().add_complete(
              "transfer", "cluster", event.time_s, at, frontend_pid,
              frontend_track,
              {obs::arg("tenant",
                        whole.tenants[event.tenant].name.empty()
                            ? whole.tenants[event.tenant].model
                            : whole.tenants[event.tenant].name),
               obs::arg("from_package",
                        static_cast<std::uint64_t>(ingress)),
               obs::arg("to_package",
                        static_cast<std::uint64_t>(package))});
        }
      }
      arrivals[package][event.tenant].push_back({at, event.shape});
    }
    for (auto& package : arrivals) {
      for (auto& stream : package) {
        // Stable: link-delayed ties keep their dispatch order, and each
        // shape rides with its arrival time.
        std::stable_sort(stream.begin(), stream.end(),
                         [](const RoutedArrival& a, const RoutedArrival& b) {
                           return a.first < b.first;
                         });
      }
    }
  } else {
    // Closed loop: the front end pins each user to one replica for its
    // whole session; per-user issue budgets follow the user.
    std::uint64_t port = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const auto& setup = whole.tenants[t];
      const auto user_count = static_cast<std::uint64_t>(setup.users);
      for (std::uint64_t u = 0; u < user_count; ++u) {
        const std::size_t ingress = port++ % packages;
        const std::size_t package = balancer.route(t, ingress);
        users[package][t] += 1;
        if (package != ingress) {
          remote_users[package][t] += 1;
        }
        budgets[package][t] +=
            setup.requests / user_count +
            (u < setup.requests % user_count ? 1 : 0);
      }
    }
  }

  // --- per-package serving configs ---
  std::vector<std::optional<serve::ServingConfig>> configs(packages);
  // One child recorder per active package: written only by that package's
  // worker, merged below (in package order) after the workers join. A
  // single-package rack keeps the lone simulator's pid (0) and an empty
  // series prefix, so its trace and metrics match a lone run exactly.
  std::vector<std::unique_ptr<obs::Recorder>> children(packages);
  for (std::size_t p = 0; p < packages; ++p) {
    const auto& hosted = placement.package_tenants[p];
    if (hosted.empty()) {
      continue;
    }
    serve::ServingConfig package;
    package.system = whole.system;
    package.arch = whole.arch;
    package.pipeline = whole.pipeline;
    // Every package runs the same elastic policy; faults are delivered
    // only to the package they name (package < 0 hits all of them).
    package.elastic = whole.elastic;
    package.elastic.faults.clear();
    for (const serve::FaultSpec& fault : whole.elastic.faults) {
      if (fault.package < 0 || fault.package == static_cast<int>(p)) {
        package.elastic.faults.push_back(fault);
      }
    }
    if (rec != nullptr) {
      obs::RecorderOptions child_options = rec->options();
      child_options.pid = static_cast<int>(p);
      child_options.process_name = "package" + std::to_string(p);
      child_options.series_prefix =
          packages > 1 ? "p" + std::to_string(p) + "." : "";
      children[p] = std::make_unique<obs::Recorder>(child_options);
      package.recorder = children[p].get();
    }
    for (const std::size_t t : hosted) {
      serve::TenantSetup tenant = whole.tenants[t];
      if (closed) {
        // A replica the user split skipped still shapes the pool
        // partition; one idle user with a zero budget serves nothing.
        tenant.users = std::max(users[p][t], 1u);
        tenant.requests = budgets[p][t];
        tenant.seed = whole.tenants[t].seed +
                      kReplicaSeedStride * *placement.replica_index(t, p);
      } else {
        tenant.replay_trace = true;
        tenant.trace_arrivals.clear();
        tenant.trace_shapes.clear();
        const bool var = tenant.prefill_tokens > 0 ||
                         !whole.tenants[t].trace_shapes.empty();
        for (const RoutedArrival& routed : arrivals[p][t]) {
          tenant.trace_arrivals.push_back(routed.first);
          if (var) {
            tenant.trace_shapes.push_back(routed.second);
          }
        }
      }
      package.tenants.push_back(std::move(tenant));
    }
    configs[p] = std::move(package);
  }

  // --- run the packages in parallel, one per worker ---
  engine::ThreadPool pool(config.threads);
  std::vector<std::optional<std::future<serve::ServingReport>>> futures(
      packages);
  for (std::size_t p = 0; p < packages; ++p) {
    if (configs[p]) {
      futures[p] = pool.submit(
          [&config = *configs[p]] { return serve::simulate(config); });
    }
  }

  // --- merge per-package reports into the rack view ---
  out.placement = std::move(placement);
  out.packages.resize(packages);
  serve::ServingMetrics& rack = metrics.rack;
  double first_arrival = std::numeric_limits<double>::infinity();
  double last_completion = 0.0;
  std::uint64_t batches = 0;
  // Package order, then tenant order: the same (tenant, completion) fold
  // a lone simulator performs, so a 1-package rack is bit-identical.
  serve::LatencyPool latencies;
  double util_sum = 0.0;
  metrics.util_min = std::numeric_limits<double>::infinity();
  metrics.util_max = 0.0;

  for (std::size_t p = 0; p < packages; ++p) {
    PackageBreakdown& breakdown = out.packages[p];
    breakdown.package = p;
    breakdown.dispatched = balancer.dispatched()[p];
    for (const std::size_t t : out.placement.package_tenants[p]) {
      breakdown.tenants.push_back(whole.tenants[t].name.empty()
                                      ? whole.tenants[t].model
                                      : whole.tenants[t].name);
    }
    double utilization = 0.0;
    if (futures[p]) {
      breakdown.report = futures[p]->get();
      breakdown.active = true;
      const serve::ServingMetrics& pm = breakdown.report.metrics;
      serve::add_counters(rack, pm);
      rack.service_cache_hits += pm.service_cache_hits;
      rack.service_cache_misses += pm.service_cache_misses;
      rack.sim_events += pm.sim_events;
      rack.sim_event_queue_peak =
          std::max(rack.sim_event_queue_peak, pm.sim_event_queue_peak);
      // TTFT p99 takes the worst package (raw TTFT samples are not
      // exported, so the pooled quantile is approximated by the max —
      // exact for a 1-package rack).
      rack.ttft_p99_s = std::max(rack.ttft_p99_s, pm.ttft_p99_s);
      // Each package runs its own elastic policy instance on its own pool.
      rack.repartitions += pm.repartitions;
      rack.repartition_resipi_s += pm.repartition_resipi_s;
      rack.faults_injected += pm.faults_injected;
      rack.carbon_g += pm.carbon_g;
      // Merge the package's day curve pointwise: buckets are indexed on
      // absolute time with a common width, so package curves align.
      const auto& curve = breakdown.report.day_curve;
      if (out.day_curve.size() < curve.size()) {
        const std::size_t old_size = out.day_curve.size();
        out.day_curve.resize(curve.size());
        for (std::size_t b = old_size; b < curve.size(); ++b) {
          out.day_curve[b].t0_s = curve[b].t0_s;
          out.day_curve[b].dt_s = curve[b].dt_s;
        }
      }
      for (std::size_t b = 0; b < curve.size(); ++b) {
        out.day_curve[b].offered += curve[b].offered;
        out.day_curve[b].completed += curve[b].completed;
        out.day_curve[b].energy_j += curve[b].energy_j;
        out.day_curve[b].carbon_g += curve[b].carbon_g;
      }
      utilization = pm.utilization;
      if (pm.offered > 0) {
        first_arrival = std::min(first_arrival, pm.first_arrival_abs_s);
        last_completion = std::max(last_completion, pm.last_completion_abs_s);
      }
      for (std::size_t i = 0; i < breakdown.report.tenants.size(); ++i) {
        const serve::TenantReport& tenant = breakdown.report.tenants[i];
        batches += tenant.batches;
        latencies.add(tenant, breakdown.report.tenant_latencies[i]);
        if (closed) {
          // Users pinned off their ingress port pay the link per
          // completed request; charged as the user-share expectation.
          const std::size_t t = out.placement.package_tenants[p][i];
          if (remote_users[p][t] > 0 && users[p][t] > 0) {
            const auto remote = static_cast<std::uint64_t>(std::llround(
                static_cast<double>(tenant.completed) *
                static_cast<double>(remote_users[p][t]) /
                static_cast<double>(users[p][t])));
            charge_transfer(t, remote);
          }
        }
      }
    }
    util_sum += utilization;
    metrics.util_min = std::min(metrics.util_min, utilization);
    metrics.util_max = std::max(metrics.util_max, utilization);
  }

  if (rec != nullptr) {
    // Every future has been joined above; fold the per-package recorders
    // in package order (deterministic regardless of worker scheduling).
    for (std::size_t p = 0; p < packages; ++p) {
      if (children[p]) {
        rec->merge_child(*children[p]);
      }
    }
    if (rec->metering()) {
      // One rack-level snapshot closes the run: the frontend's transfer
      // counters only materialize as series here.
      rec->metrics().snapshot(last_completion);
    }
  }

  rack.first_arrival_abs_s =
      std::isfinite(first_arrival) ? first_arrival : last_completion;
  rack.last_completion_abs_s = last_completion;
  rack.makespan_s =
      std::max(last_completion - rack.first_arrival_abs_s, 0.0);
  rack.energy_j += metrics.transfer_energy_j;
  // Transfer energy is carbon-priced flat at the base intensity — the
  // front end has no time-resolved link schedule to price diurnally.
  rack.carbon_g +=
      metrics.transfer_energy_j / 3.6e6 * whole.elastic.carbon_base_gpkwh;
  for (serve::DayPoint& point : out.day_curve) {
    if (point.completed > 0) {
      point.energy_per_request_j =
          point.energy_j / static_cast<double>(point.completed);
    }
  }
  latencies.summarize(rack, batches, rack.makespan_s);
  // Idle packages count as utilization 0 — the rack average is honest
  // about unused capacity.
  rack.utilization = util_sum / static_cast<double>(packages);
  if (!std::isfinite(metrics.util_min)) {
    metrics.util_min = 0.0;
  }
  return out;
}

}  // namespace optiplet::cluster
