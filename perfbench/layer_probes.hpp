#pragma once
/// \file layer_probes.hpp
/// Direct calls into single layers for the traced run. Each probe takes
/// its inputs from the workload (its oracle points, interposer shapes,
/// latency samples and request counts), repeats its calls until at least
/// `budget_s` of host time has passed, and spans every timed call.

#include <cstddef>
#include <vector>

#include "workloads.hpp"

namespace optiplet::perfbench {

struct CoreProbe {
  double run_s = 0.0;    ///< median SystemSimulator::run [s]
  std::size_t runs = 0;  ///< distinct (model, batch, fidelity) points
};

/// SystemSimulator::run over the distinct points of `plans`.
[[nodiscard]] CoreProbe probe_core(const std::vector<OraclePlan>& plans,
                                   accel::Architecture arch, SpanTrace& trace,
                                   double budget_s);

/// PhotonicCycleNet cycles per host-second, driven through inject_* and
/// run_until_drained with the layer traffic of the sampled windows of
/// `tenant`'s model on its partition.
[[nodiscard]] double probe_cycle_net(
    const serve::ServiceTimeOracle::Tenant& tenant, SpanTrace& trace,
    double budget_s);

/// PhotonicInterposer::transfer_latency_s calls per host-second over the
/// read and write payloads of every layer of `tenant`'s model.
[[nodiscard]] double probe_interposer(
    const serve::ServiceTimeOracle::Tenant& tenant, SpanTrace& trace,
    double budget_s);

/// Link-budget evaluations (interposer construction plus
/// link_budget_feasible) per host-second over the workload's interposer
/// shapes.
[[nodiscard]] double probe_link_budget(const Workload& w,
                                       const Prepared& prepared,
                                       SpanTrace& trace, double budget_s);

/// Median host time of one rack merge's quantile calls (p50, p95, p99 and
/// the two class p99s, each on a copy, as cluster::simulate calls
/// serve::exact_quantile) summed over the pooled samples [s].
[[nodiscard]] double probe_quantiles(
    const std::vector<std::vector<double>>& pooled, SpanTrace& trace,
    double budget_s);

/// LoadBalancer::route calls per host-second: one route per offered request
/// of every scenario, ingress ports round-robin, on the workload's rack (a
/// one-package rack for the lone and sweep workloads).
[[nodiscard]] double probe_route(const Workload& w, const Prepared& prepared,
                                 SpanTrace& trace, double budget_s);

}  // namespace optiplet::perfbench
