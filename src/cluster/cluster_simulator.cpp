#include "cluster/cluster_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/load_balancer.hpp"
#include "cluster/package_link.hpp"
#include "dnn/workload.hpp"
#include "dnn/zoo.hpp"
#include "engine/thread_pool.hpp"
#include "obs/recorder.hpp"
#include "photonics/microring.hpp"
#include "photonics/wavelength.hpp"
#include "serve/arrivals.hpp"
#include "serve/elastic.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace optiplet::cluster {

namespace {

/// Seed offset between replicas of one closed-loop tenant, so replica
/// think-time streams are independent while replica 0 keeps the exact
/// single-package stream (N=1 degeneracy).
constexpr std::uint64_t kReplicaSeedStride = 7919;

/// The rack's board link, refused when its budget cannot close: its WDM
/// row must fit one ring FSR, and its loss plus crosstalk must stay
/// within what the worst-case reader tolerates (PackageLink::feasible).
PackageLink board_link(const ClusterSpec& spec,
                       const core::SystemConfig& system) {
  const auto refuse = [&spec](const std::string& why) {
    return std::invalid_argument(
        "board link of link_length_m " +
        util::format_general(spec.link_length_m) + " and link_wavelengths " +
        std::to_string(spec.link_wavelengths) + ": " + why);
  };
  // A row wider than the FSR of a ring at the grid centre is wider than
  // the FSR of its own lower channels too. Screening it first keeps a
  // grid of thousands of channels, which would run below zero
  // wavelength, from being built at all.
  const photonics::WdmGrid centre = photonics::make_cband_grid(1);
  const photonics::MicroringResonator ring(system.tech.photonic.ring,
                                           system.tech.photonic.tuning,
                                           centre.wavelength_m(0));
  if (static_cast<double>(spec.link_wavelengths) *
          centre.channel_spacing_m() >=
      ring.fsr_m()) {
    throw refuse("its WDM row is wider than one ring FSR");
  }
  PackageLink link =
      make_package_link(spec, system.photonic, system.tech.photonic);
  if (!link.feasible()) {
    throw refuse("its link budget cannot close (" +
                 util::format_general(link.budget().total_loss_db() +
                                      link.crosstalk_penalty_db()) +
                 " dB of loss and crosstalk)");
  }
  return link;
}

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

/// One tenant's link prices. Each is a pure function of the tenant's
/// payload bits, so pricing once per tenant is exact.
struct LinkPrice {
  /// The request's forward hop, which delays its arrival at the replica.
  double hop_s = 0.0;
  /// Request plus response hop, charged per remote request.
  double round_trip_s = 0.0;
  double round_trip_j = 0.0;
  /// Request plus response payload [bit].
  double bits = 0.0;
};

/// Append arrival `seq` of `from`, at `time_s`, to `to`.
void append(RoutedStream& to, double time_s, const TenantStream& from,
            std::size_t seq) {
  to.times.push_back(time_s);
  if (!from.shapes.empty()) {
    to.shapes.push_back(from.shapes[seq]);
  }
}

/// One (package, tenant) lane of the front end: the arrivals served where
/// they entered go straight to `routed`; those that crossed a link wait
/// in `pending` until a local arrival at an equal or later time, or the
/// end, writes them out. Both halves are sorted (the link delay is
/// constant per tenant), and a pending arrival was dispatched before any
/// later local one, so it goes first on equal times. `routed` thus ends
/// sorted by arrival time with ties in dispatch order: the order a stable
/// sort of the dispatch sequence gives.
struct Lane {
  RoutedStream routed;
  RoutedStream pending;
  /// First pending arrival not yet written out.
  std::size_t head = 0;

  /// Write out the pending arrivals due at or before `time_s`.
  void release(double time_s) {
    const bool shaped = !pending.shapes.empty();
    for (; head < pending.times.size() && pending.times[head] <= time_s;
         ++head) {
      routed.times.push_back(pending.times[head]);
      if (shaped) {
        routed.shapes.push_back(pending.shapes[head]);
      }
    }
    if (head > 0 && head == pending.times.size()) {
      pending.times.clear();
      pending.shapes.clear();
      head = 0;
    }
  }
};

}  // namespace

std::vector<std::vector<RoutedStream>> dispatch_open_loop(
    std::vector<TenantStream> streams, std::size_t packages,
    LoadBalancer& balancer,
    const std::function<void(const LinkHop&)>& on_hop) {
  OPTIPLET_REQUIRE(packages >= 1, "cluster needs at least one package");
  const std::size_t n = streams.size();
  std::uint64_t total = 0;
  for (const TenantStream& stream : streams) {
    OPTIPLET_REQUIRE(std::is_sorted(stream.times.begin(), stream.times.end()),
                     "tenant arrival stream must be time-sorted");
    OPTIPLET_REQUIRE(
        stream.shapes.empty() || stream.shapes.size() == stream.times.size(),
        "tenant request shapes must align with its arrivals");
    total += stream.times.size();
  }

  std::vector<Lane> lanes(packages * n);
  std::vector<std::size_t> next(n, 0);
  std::size_t ingress = 0;
  for (std::uint64_t k = 0; k < total; ++k) {
    // The earliest head; equal times go to the lower tenant, and each
    // stream is consumed in seq order: the (time, tenant, seq) order.
    std::size_t tenant = n;
    double time = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      if (next[t] < streams[t].times.size()) {
        const double head = streams[t].times[next[t]];
        if (tenant == n || head < time) {
          tenant = t;
          time = head;
        }
      }
    }
    const TenantStream& stream = streams[tenant];
    const std::size_t seq = next[tenant]++;
    const std::size_t package = balancer.route(tenant, ingress);
    Lane& lane = lanes[package * n + tenant];
    if (package != ingress) {
      // The request rides the photonic link to its replica; the response
      // rides back. Only the forward hop delays service.
      const double at = time + stream.hop_s;
      on_hop({tenant, ingress, package, time, at});
      append(lane.pending, at, stream, seq);
    } else {
      lane.release(time);
      append(lane.routed, time, stream, seq);
    }
    ingress = ingress + 1 == packages ? 0 : ingress + 1;
  }

  std::vector<std::vector<RoutedStream>> routed(packages);
  for (std::size_t p = 0; p < packages; ++p) {
    routed[p].reserve(n);
    for (std::size_t t = 0; t < n; ++t) {
      Lane& lane = lanes[p * n + t];
      lane.release(std::numeric_limits<double>::infinity());
      routed[p].push_back(std::move(lane.routed));
    }
  }
  return routed;
}

ClusterReport simulate(const ClusterConfig& config) {
  const ClusterSpec& spec = config.cluster;
  const std::size_t packages = spec.packages;
  OPTIPLET_REQUIRE(packages >= 1, "cluster needs at least one package");
  for (const serve::FaultSpec& fault : config.serving.elastic.faults) {
    if (fault.package < -1 || fault.package >= static_cast<int>(packages)) {
      throw std::invalid_argument(
          serve::to_string(fault) + " names package " +
          std::to_string(fault.package) + ", but the rack has " +
          std::to_string(packages) +
          " package(s): use 0 to " + std::to_string(packages - 1) +
          ", or -1 for every package");
    }
  }

  // Resolve the cluster-wide tenant list exactly as a lone simulator
  // would (names, load split, seeds, trace partitioning) — the front end
  // then shards these authoritative streams. Not const: the open-loop
  // front end moves replayed traces out of it.
  serve::ServingConfig whole =
      serve::make_serving_config(config.system, config.arch, config.serving);
  const std::size_t n = whole.tenants.size();

  std::vector<std::string> models;
  for (const auto& tenant : whole.tenants) {
    models.push_back(tenant.model);
  }
  Placement placement = place_tenants(spec, config.system, config.arch,
                                      models, std::vector<double>(n, 1.0));

  const PackageLink link = board_link(spec, config.system);
  // Payload of one request/response crossing a link: the model's first
  // layer consumes the request tensor, the last layer emits the response.
  std::vector<LinkPrice> prices(n);
  for (std::size_t t = 0; t < n; ++t) {
    const dnn::Workload workload = dnn::compute_workload(
        dnn::zoo::by_name(models[t]), config.system.parameter_bits);
    const std::uint64_t request_bits = workload.layers.front().input_bits;
    const std::uint64_t response_bits = workload.layers.back().output_bits;
    prices[t].hop_s = link.transfer_latency_s(request_bits);
    prices[t].round_trip_s = link.transfer_latency_s(request_bits) +
                             link.transfer_latency_s(response_bits);
    prices[t].round_trip_j = link.transfer_energy_j(request_bits) +
                             link.transfer_energy_j(response_bits);
    prices[t].bits = static_cast<double>(request_bits + response_bits);
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
    const LinkPrice& price = prices[tenant];
    metrics.transfers += count;
    metrics.transfer_latency_s +=
        static_cast<double>(count) * price.round_trip_s;
    metrics.transfer_energy_j +=
        static_cast<double>(count) * price.round_trip_j;
  };
  // The transfer counters reach the metrics CSV only at the rack's final
  // snapshot, and their sums are exact (hop counts, and byte counts with
  // at most a 1/8 fraction), so each batch of charges is metered once.
  const auto meter_transfers = [&](std::uint64_t count, double bytes) {
    if (rec != nullptr && rec->metering()) {
      rec->metrics().add("cluster.transfers", static_cast<double>(count));
      rec->metrics().add("cluster.transfer_bytes", bytes);
    }
  };

  // Open loop: per-(package, tenant) routed arrivals.
  std::vector<std::vector<RoutedStream>> routed;
  // Closed loop: per-(package, tenant) user counts / issue budgets.
  std::vector<std::vector<unsigned>> users(packages,
                                           std::vector<unsigned>(n, 0));
  std::vector<std::vector<std::uint64_t>> budgets(
      packages, std::vector<std::uint64_t>(n, 0));
  std::vector<std::vector<std::uint64_t>> remote_users(
      packages, std::vector<std::uint64_t>(n, 0));

  if (!closed) {
    std::vector<TenantStream> streams(n);
    for (std::size_t t = 0; t < n; ++t) {
      serve::TenantSetup& setup = whole.tenants[t];
      TenantStream& stream = streams[t];
      stream.hop_s = prices[t].hop_s;
      // The front end fixes each request's token geometry before routing:
      // replayed shapes verbatim, otherwise the same seeded draw stream
      // the lone simulator would produce (see serve::draw_request_shape).
      if (setup.replay_trace) {
        stream.times = std::move(setup.trace_arrivals);
        stream.shapes = std::move(setup.trace_shapes);
      } else {
        stream.times = serve::poisson_arrivals(setup.arrival_rps,
                                               setup.requests, setup.seed);
      }
      if (stream.shapes.empty() && setup.prefill_tokens > 0) {
        util::Xoshiro256 shape_rng(setup.seed ^ 0x746f6b656eULL);
        stream.shapes.reserve(stream.times.size());
        for (std::size_t k = 0; k < stream.times.size(); ++k) {
          stream.shapes.push_back(serve::draw_request_shape(
              setup.prefill_tokens, setup.decode_tokens, setup.token_spread,
              shape_rng));
        }
      }
    }
    double hop_bytes = 0.0;
    routed = dispatch_open_loop(
        std::move(streams), packages, balancer, [&](const LinkHop& hop) {
          charge_transfer(hop.tenant, 1);
          hop_bytes += prices[hop.tenant].bits / 8.0;
          if (rec != nullptr && rec->tracing()) {
            const serve::TenantSetup& tenant = whole.tenants[hop.tenant];
            rec->trace().add_complete(
                "transfer", "cluster", hop.sent_s, hop.arrival_s,
                frontend_pid, frontend_track,
                {obs::arg("tenant",
                          tenant.name.empty() ? tenant.model : tenant.name),
                 obs::arg("from_package",
                          static_cast<std::uint64_t>(hop.ingress)),
                 obs::arg("to_package",
                          static_cast<std::uint64_t>(hop.package))});
          }
        });
    if (metrics.transfers > 0) {
      meter_transfers(metrics.transfers, hop_bytes);
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
    // only to the package they name (package -1 hits all of them).
    package.elastic = whole.elastic;
    package.elastic.faults.clear();
    for (const serve::FaultSpec& fault : whole.elastic.faults) {
      if (fault.package == -1 || fault.package == static_cast<int>(p)) {
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
        tenant.trace_arrivals = std::move(routed[p][t].times);
        tenant.trace_shapes = std::move(routed[p][t].shapes);
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
            meter_transfers(remote, static_cast<double>(remote) *
                                        prices[t].bits / 8.0);
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
