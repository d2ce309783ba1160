#pragma once
/// \file cluster_simulator.hpp
/// The parallel rack engine: N interposer packages, each wrapping its own
/// serving simulator, fed from one shared arrival stream.
///
/// Dispatch is resolved deterministically *before* any package simulates:
/// the cluster-wide per-tenant arrival streams (the exact Poisson vectors,
/// replayed trace, or closed-loop user pools a lone simulator would see)
/// are merged in time order, each arrival enters the rack at a round-robin
/// ingress port, and the `LoadBalancer` picks the serving replica. A
/// request served off its ingress package pays the `PackageLink`
/// link-budget transfer cost: the forward hop delays its arrival at the
/// serving package, and both hops accrue into the rack's transfer
/// latency/energy totals. The per-package simulators then run in parallel
/// on `engine::ThreadPool` (one package per worker) and their reports
/// merge into a `ClusterReport` — percentiles and goodput recomputed from
/// the pooled latency samples, so a 1-package rack reproduces the lone
/// simulator bit for bit.

#include <cstddef>
#include <functional>
#include <vector>

#include "accel/platform.hpp"
#include "cluster/cluster_report.hpp"
#include "cluster/cluster_spec.hpp"
#include "core/system_config.hpp"
#include "serve/serving_spec.hpp"

namespace optiplet::obs {
class Recorder;
}  // namespace optiplet::obs

namespace optiplet::cluster {

class LoadBalancer;

/// One tenant's open-loop arrival stream at the rack's front end.
struct TenantStream {
  /// Arrival times [s], non-decreasing: Poisson arrivals are cumulative
  /// sums, and `serve::load_arrival_trace` stable-sorts its rows.
  std::vector<double> times;
  /// Request shapes aligned with `times`; empty for fixed-shape tenants.
  std::vector<serve::RequestShape> shapes;
  /// Forward-hop link latency of a request served off its ingress [s].
  double hop_s = 0.0;
};

/// The arrivals one package serves for one tenant, as a replay trace.
struct RoutedStream {
  /// Arrival times at the package [s], sorted; ties in dispatch order.
  std::vector<double> times;
  /// Shapes aligned with `times` (empty when the tenant's stream has none).
  std::vector<serve::RequestShape> shapes;
};

/// One request served off its ingress package: it leaves `ingress` at
/// `sent_s` and reaches `package` at `arrival_s`.
struct LinkHop {
  std::size_t tenant = 0;
  std::size_t ingress = 0;
  std::size_t package = 0;
  double sent_s = 0.0;
  double arrival_s = 0.0;
};

/// The open-loop front end, linear in the number of arrivals. Merges
/// `streams` on (time, tenant, seq); arrival k of the merged stream enters
/// at ingress port k mod `packages`, `balancer` picks its package, and one
/// served off its ingress arrives its tenant's `hop_s` later and is
/// reported to `on_hop`, in dispatch order. Returns the [package][tenant]
/// streams, each sorted by arrival time at the package with ties in
/// dispatch order. Throws std::invalid_argument when a stream is unsorted
/// or its shapes are misaligned.
[[nodiscard]] std::vector<std::vector<RoutedStream>> dispatch_open_loop(
    std::vector<TenantStream> streams, std::size_t packages,
    LoadBalancer& balancer,
    const std::function<void(const LinkHop&)>& on_hop);

struct ClusterConfig {
  /// Per-package base system (Table 1 by default).
  core::SystemConfig system;
  accel::Architecture arch = accel::Architecture::kSiph2p5D;
  /// Cluster-wide workload: the same sweepable spec a lone simulator
  /// takes; the front end shards its arrival stream across the rack.
  serve::ServingSpec serving;
  ClusterSpec cluster;
  /// Rack worker threads (one package per worker); 0 = hardware
  /// concurrency. The result is bit-identical for any thread count.
  std::size_t threads = 0;
  /// Observability sink. Each package gets a child recorder (pid = package
  /// index, written by that package's worker only); children merge into
  /// this recorder, in package order, after the workers join. Inter-package
  /// transfers land on a "frontend" pseudo-process (pid = package count).
  /// Null disables observability. Not owned; must outlive simulate().
  obs::Recorder* recorder = nullptr;
};

/// Run the rack to completion (every package drains its dispatched load).
/// Throws std::invalid_argument naming link_length_m and link_wavelengths
/// when the board link's budget cannot close (PackageLink::feasible).
[[nodiscard]] ClusterReport simulate(const ClusterConfig& config);

}  // namespace optiplet::cluster
