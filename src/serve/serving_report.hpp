#pragma once
/// \file serving_report.hpp
/// Result types of a serving simulation: per-tenant and aggregate
/// tail-latency/throughput/energy metrics, plus the optional per-batch
/// execution trace the co-location invariant tests consume.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "power/energy_ledger.hpp"

namespace optiplet::serve {

/// Compact aggregate metrics — the engine/CSV face of a serving run.
struct ServingMetrics {
  std::uint64_t offered = 0;    ///< requests that arrived
  std::uint64_t completed = 0;  ///< requests that finished
  /// Requests rejected at admission (SLA-aware shedding); every offered
  /// request is either completed or shed, so offered == completed + shed.
  std::uint64_t shed = 0;
  double makespan_s = 0.0;      ///< first arrival to last completion
  double throughput_rps = 0.0;
  /// Completions that met their tenant's SLA, per second of makespan —
  /// the rate the operator actually gets paid for. goodput <= throughput.
  double goodput_rps = 0.0;
  double mean_latency_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_latency_s = 0.0;
  /// Fraction of completed requests whose latency exceeded their tenant's
  /// SLA deadline.
  double sla_violation_rate = 0.0;
  double mean_batch = 0.0;
  /// Mean chiplet-pool busy fraction over the makespan (executor-busy
  /// semantics in both pipeline modes; per-chiplet fractions clamp at 1
  /// when layer-granular overlap keeps an executor saturated).
  double utilization = 0.0;
  /// Total energy [J]: every batch's full-system energy plus the idle
  /// static burn of the pool between batches.
  double energy_j = 0.0;
  double energy_per_request_j = 0.0;
  /// Cross-tenant ReSiPI reconfigurations that had to wait their turn.
  std::uint64_t resipi_conflicts = 0;
  double resipi_wait_s = 0.0;
  /// Layer-granular mode: cross-tenant handoffs of a shared-serial group
  /// at layer boundaries, and the ReSiPI retuning latency they charged.
  std::uint64_t shared_handoffs = 0;
  double handoff_resipi_s = 0.0;
  /// Service-time oracle cache behavior.
  std::uint64_t service_cache_hits = 0;
  std::uint64_t service_cache_misses = 0;
  /// p99 of the most-important (lowest-numbered) and least-important
  /// priority classes present; equal when every tenant shares one class.
  double p99_hi_s = 0.0;
  double p99_lo_s = 0.0;
  /// Absolute simulation times bounding the measured window (both 0 when
  /// nothing arrived). `makespan_s` is their difference; the rack engine
  /// needs the absolute endpoints to merge windows across packages whose
  /// traces start at different times.
  double first_arrival_abs_s = 0.0;
  double last_completion_abs_s = 0.0;
  /// Simulator self-profiling: events the discrete-event kernel executed
  /// and its peak heap depth. Deterministic (pure functions of the
  /// schedule) — though attaching an obs::Recorder adds its snapshot
  /// events to the count. Rack runs sum events and take the max peak
  /// across packages.
  std::uint64_t sim_events = 0;
  std::uint64_t sim_event_queue_peak = 0;
  /// Variable-length (transformer) serving; all zero on fixed-shape runs.
  /// p99 time-to-first-token: arrival to the end of the request's prefill
  /// phase, pooled across tenants.
  double ttft_p99_s = 0.0;
  /// Generated tokens per second of makespan, summed over tenants.
  double decode_tps = 0.0;
  /// Peak KV-cache bytes reserved by any single tenant (each request
  /// reserves its final-context footprint while in flight); always <=
  /// the largest per-tenant kv_cache_mb budget.
  std::uint64_t kv_peak_bytes = 0;
  /// Elastic operation (see docs/elastic-operation.md); all zero when the
  /// elastic policy is inert. With retries enabled the drain identity
  /// widens to offered == completed + shed + abandoned.
  /// Shed requests whose capped retry budget ran out.
  std::uint64_t abandoned = 0;
  /// Backoff re-offers of shed requests (<= offered * retry_max_attempts).
  std::uint64_t retries = 0;
  /// Pool re-partitions executed (EMA load shifts plus fault-forced).
  std::uint64_t repartitions = 0;
  /// ReSiPI PCM-write time serialized on the interposer for re-partitions:
  /// exactly one write window per repartition event.
  double repartition_resipi_s = 0.0;
  /// Idle gaps long enough that a tenant's owned lasers/gateways gated.
  std::uint64_t gate_events = 0;
  /// Chiplet-seconds of idle time spent gated (removed from the ledger's
  /// "serving.idle" burn).
  double gated_idle_s = 0.0;
  /// FaultSpec events that fired during the run.
  std::uint64_t faults_injected = 0;
  /// Carbon proxy: total energy priced at the (optionally sinusoidal)
  /// grid intensity [g CO2].
  double carbon_g = 0.0;
};

/// Aggregate outcome of one priority class (tenants grouped by their
/// `priority` value; sorted ascending — class 0 is the most important).
struct ClassReport {
  unsigned priority = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t abandoned = 0;
  double p99_s = 0.0;
  double sla_violation_rate = 0.0;
  double goodput_rps = 0.0;
};

/// Per-tenant serving outcome.
struct TenantReport {
  std::string name;
  std::string model;
  /// Priority class (lower = more important) — orders grants of contended
  /// shared resources.
  unsigned priority = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  /// Arrivals rejected by SLA-aware admission control.
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  double throughput_rps = 0.0;
  /// SLA-met completions per second of makespan.
  double goodput_rps = 0.0;
  double mean_latency_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_latency_s = 0.0;
  double sla_s = 0.0;  ///< effective deadline (auto-derived when spec <= 0)
  double sla_violation_rate = 0.0;
  double mean_batch = 0.0;
  double busy_s = 0.0;        ///< executor busy time
  double utilization = 0.0;   ///< busy_s / makespan
  double energy_j = 0.0;      ///< sum of the tenant's batch energies
  double energy_per_request_j = 0.0;
  double shared_wait_s = 0.0;  ///< waiting on the shared-serial chiplets
  double resipi_wait_s = 0.0;  ///< waiting on another tenant's reconfig
  std::uint64_t resipi_conflicts = 0;
  /// Layer-granular mode: shared-group handoffs this tenant paid for, and
  /// the per-handoff ReSiPI retuning time charged to its layers.
  std::uint64_t shared_handoffs = 0;
  double handoff_resipi_s = 0.0;
  /// Variable-length (transformer) serving; all zero for fixed-shape
  /// tenants. See ServingMetrics for the field semantics.
  double ttft_p99_s = 0.0;
  double decode_tps = 0.0;
  std::uint64_t kv_peak_bytes = 0;
  /// Elastic operation (all zero when the policy is inert).
  std::uint64_t abandoned = 0;
  std::uint64_t retries = 0;
  std::uint64_t gate_events = 0;
  double gated_idle_s = 0.0;  ///< chiplet-seconds of gated idle
};

/// One executed batch — or, in layer-granular mode, one pipeline stage of
/// a batch — recorded when ServingConfig::record_batches: enough to audit
/// chiplet occupancy and reconfiguration serialization.
struct BatchTrace {
  std::size_t tenant = 0;
  unsigned size = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Pool-global ids actually locked for [start_s, end_s): the batch's
  /// whole occupancy in batch-granular mode, the stage's chiplet group in
  /// layer-granular mode.
  std::vector<std::size_t> chiplets;
  /// ReSiPI reconfiguration window ([0,0) when the batch reconfigured
  /// nothing).
  double resipi_start_s = 0.0;
  double resipi_end_s = 0.0;
  /// Layer-granular mode: which consecutive slice of the model's layers
  /// this stage ran (layer_count == 0 means the whole batch).
  std::size_t first_layer = 0;
  std::size_t layer_count = 0;
  std::uint64_t batch_id = 0;  ///< per-tenant dispatch sequence number
};

/// One bucket of the energy-per-request day curve (elastic operation;
/// produced only when ElasticSpec::curve_bucket_s > 0).
struct DayPoint {
  double t0_s = 0.0;  ///< bucket start (absolute simulation time)
  double dt_s = 0.0;  ///< bucket width
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  /// Batch energy dispatched in the bucket plus the bucket's share of the
  /// pool's idle static burn.
  double energy_j = 0.0;
  double energy_per_request_j = 0.0;  ///< energy_j / completed (0 if none)
  /// Bucket energy priced at the grid intensity at the bucket midpoint.
  double carbon_g = 0.0;
};

/// Everything a serving simulation produces.
struct ServingReport {
  ServingMetrics metrics;
  std::vector<TenantReport> tenants;
  /// Per-priority-class aggregates, sorted by class (ascending). Always
  /// populated; a single-class run has exactly one entry.
  std::vector<ClassReport> classes;
  /// Serving-level energy ledger: every batch's ledger merged, plus the
  /// "serving.idle" category for the pool's idle static burn.
  power::EnergyLedger ledger;
  /// Busy seconds per pool chiplet (pool-global id order).
  std::vector<double> chiplet_busy_s;
  /// Raw completion latencies per tenant (tenant order, completion order)
  /// — the samples behind the percentile metrics, exported so rack-level
  /// reports can pool them and recompute exact quantiles.
  std::vector<std::vector<double>> tenant_latencies;
  /// Per-batch execution trace; empty unless record_batches was set.
  std::vector<BatchTrace> batches;
  /// Energy-per-request / carbon day curve; empty unless the elastic spec
  /// set curve_bucket_s > 0.
  std::vector<DayPoint> day_curve;
  /// Wall-clock the simulate() call took. *Not* deterministic — kept out
  /// of ServingMetrics so determinism tests never compare it.
  double wall_s = 0.0;
};

/// Exact nearest-rank quantile of `values` (copied and sorted internally);
/// q in (0, 1]. Returns 0 for an empty sample.
[[nodiscard]] double exact_quantile(std::vector<double> values, double q);

/// Pool the counters a part (a TenantReport into the lone aggregate, or a
/// package's ServingMetrics into the rack) shares with its whole: sums,
/// except the KV peak, which takes the largest part.
template <typename Part>
void add_counters(ServingMetrics& m, const Part& part) {
  m.offered += part.offered;
  m.completed += part.completed;
  m.shed += part.shed;
  m.energy_j += part.energy_j;
  m.resipi_conflicts += part.resipi_conflicts;
  m.resipi_wait_s += part.resipi_wait_s;
  m.shared_handoffs += part.shared_handoffs;
  m.handoff_resipi_s += part.handoff_resipi_s;
  m.decode_tps += part.decode_tps;
  m.kv_peak_bytes = std::max(m.kv_peak_bytes, part.kv_peak_bytes);
  m.abandoned += part.abandoned;
  m.retries += part.retries;
  m.gate_events += part.gate_events;
  m.gated_idle_s += part.gated_idle_s;
}

/// Completion latencies pooled across tenants, each sample judged against
/// its own tenant's SLA and filed under the tenant's priority class, and
/// the one summary every report derives from them: a tenant's own report,
/// the lone simulator's aggregate, and the rack merge. The mean sums in
/// insertion (tenant, completion) order; quantiles are exact nearest-rank
/// values selected on one working copy.
class LatencyPool {
 public:
  /// Pool one tenant's samples; its report supplies the SLA, the priority
  /// class and the class counters.
  void add(const TenantReport& tenant, const std::vector<double>& samples);

  /// Fill the latency figures (mean, max, p50/p95/p99, SLA-violation
  /// rate) and the rates (throughput and goodput over `makespan_s`,
  /// energy per request, mean batch) of a report whose counters and
  /// energy are final. The aggregate form also sets p99_hi_s / p99_lo_s
  /// from the first and last priority class.
  void summarize(TenantReport& r, double makespan_s);
  void summarize(ServingMetrics& m, std::uint64_t batches, double makespan_s);

  /// One report per pooled priority class, ascending by class.
  [[nodiscard]] std::vector<ClassReport> classes(double makespan_s);

 private:
  struct Class {
    ClassReport report;
    std::vector<double> samples;
    std::uint64_t violations = 0;
    bool p99_selected = false;
  };

  template <typename Report>
  void summarize_into(Report& r, std::uint64_t batches, double makespan_s);

  std::map<unsigned, Class> classes_;
  std::size_t count_ = 0;
  double sum_s_ = 0.0;
  double max_s_ = 0.0;
  std::uint64_t violations_ = 0;
};

}  // namespace optiplet::serve
