#pragma once
/// \file serving_simulator.hpp
/// Discrete-event request-level serving simulator.
///
/// The simulator closes the loop the ROADMAP asks for: instead of scoring
/// one inference, it serves an open-loop request stream against the 2.5D
/// SiPh platform. It uses core::SystemSimulator (through the memoized
/// serve::ServiceTimeOracle) as its service-time oracle, so both
/// fidelities — analytical and cycle-accurate — serve transparently.
///
/// The loop runs on sim::EventQueue with typed events: each is an 8-byte
/// {kind, tenant, slot} record that one `switch` dispatches, and the state
/// it acts on lives in the engine (dispatched batches in an
/// index-addressed slab, pending retries in a slot pool, the rest in
/// per-tenant fields). docs/serving-model.md, "Event model", lists the
/// kinds.
///
/// Mechanics per tenant:
///   * arrivals — seeded Poisson, a replayed CSV trace, or a closed-loop
///     client pool (ArrivalSource::kClosedLoop: N users that think for an
///     exponential time and reissue only after their response returns) —
///     feed a serve::BatchQueue running one of three policies;
///   * AdmissionPolicy::kSlaShed rejects an arrival at enqueue time when
///     a ServiceTimeOracle-based backlog estimate predicts its completion
///     past the tenant's SLA deadline (shed requests are counted, never
///     executed, and — closed loop — return to their user immediately);
///   * contended shared resources grant priority-class first (lower class
///     wins, FIFO within a class, a pipeline stage ahead of tenant-level
///     work of its class);
///   * the tenant's executor is its chiplet partition
///     (serve::partition_pool): one batch in flight at a time, service
///     time = the oracle's batched full-system run (weights amortized,
///     activations scaled);
///   * shared-serial chiplet groups (kinds too scarce to split) are one
///     exclusive resource, entry 0 of the engine's resource table in both
///     pipeline modes, so no chiplet is ever double-booked;
///   * ReSiPI reconfigurations of different tenants on the shared
///     interposer are serialized: a batch that reconfigures gateways waits
///     for any other tenant's in-flight reconfiguration window.
///
/// PipelineMode::kLayerGranular replaces the single batch-completion event
/// with a layer-advance event chain (SET-style inter-layer pipelining):
///   * a batch advances through the oracle's LayerSchedule stages, holding
///     only the chiplet group of its current stage, so layer k of batch i
///     overlaps layer k+1 of batch i-1 within a tenant (up to the model's
///     distinct-group pipeline depth) and co-resident tenants overlap on
///     disjoint groups;
///   * scarce shared-serial groups are handed off between tenants at layer
///     boundaries instead of locking for a whole batch; each cross-tenant
///     handoff charges a ReSiPI retuning window (one PCM write time) that
///     serializes on the shared interposer like any other reconfiguration.
///
/// Transformer tenants (TenantSetup::prefill_tokens > 0, or a trace with
/// token columns) serve variable-length requests priced per phase through
/// the oracle: a MAC-bound prefill over the prompt (batch-amortized like
/// any fixed-shape batch) followed by one bandwidth-bound decode step per
/// generated token, each re-streaming the weights and reading the growing
/// KV cache. The per-tenant KV budget (kv_cache_mb) bounds the token
/// footprint reserved by in-flight requests — the activation-buffer
/// constraint that caps concurrent decode slots. Static policies batch
/// with padding semantics (the batch prefills at the longest prompt and
/// decodes for the longest generation); BatchPolicy::kContinuous replaces
/// whole-batch dispatch with iteration-level scheduling — requests join
/// and leave the running decode batch at token boundaries, and waiting
/// prefills are admitted into the bubbles completions free. Transformer
/// compute is dense-affine throughout, so its stage chain collapses to a
/// single kDense100 stage and layer-granular mode serves these tenants
/// batch-granular (through the same shared-group locks).
///
/// The report carries throughput, utilization, p50/p95/p99 latency,
/// SLA-violation rate, and energy per request (batch energies plus the
/// pool's idle static burn) through power::EnergyLedger.

#include <cstdint>
#include <string>
#include <vector>

#include "accel/platform.hpp"
#include "core/system_config.hpp"
#include "serve/batching.hpp"
#include "serve/colocation.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_report.hpp"
#include "serve/serving_spec.hpp"

namespace optiplet::obs {
class Recorder;
}  // namespace optiplet::obs

namespace optiplet::serve {

/// One resident model and its traffic.
struct TenantSetup {
  std::string name;   ///< defaults to the model name when empty
  std::string model;  ///< Table-2 name (dnn::zoo)
  /// Poisson arrival rate [requests/s]; used when `trace_arrivals` is
  /// empty.
  double arrival_rps = 100.0;
  /// Arrivals to generate for the Poisson process — or, closed-loop, the
  /// total request issue budget across the tenant's users.
  std::uint64_t requests = 1000;
  /// Seed of this tenant's arrival process (closed-loop: its think-time
  /// draws).
  std::uint64_t seed = 42;
  /// Replay mode: `trace_arrivals` is the tenant's entire arrival stream
  /// (authoritative even when empty — a tenant absent from the trace
  /// serves nothing; it never falls back to the Poisson process).
  bool replay_trace = false;
  std::vector<double> trace_arrivals;
  /// Open-loop (Poisson/trace) or closed-loop (client pool). kClosedLoop
  /// is incompatible with `replay_trace` and ignores `arrival_rps`.
  ArrivalSource source = ArrivalSource::kOpenLoop;
  /// kClosedLoop: concurrent users; each issues, waits for its response
  /// (or shed notice), thinks, and reissues until `requests` is spent.
  unsigned users = 16;
  /// kClosedLoop: mean exponential think time [s].
  double think_s = 10.0e-3;
  BatchingConfig batching;
  /// Mean token geometry for transformer tenants (0 = fixed-shape; the
  /// only valid setting for CNN tenants). When positive, every request
  /// carries a RequestShape and is priced per phase: a MAC-bound prefill
  /// plus `decode_tokens` bandwidth-bound decode steps.
  std::uint32_t prefill_tokens = 0;
  std::uint32_t decode_tokens = 0;
  /// Relative half-width of the per-request uniform token draw in [0, 1);
  /// 0 = every request exactly the mean.
  double token_spread = 0.0;
  /// Per-tenant KV-cache (activation-buffer) budget [MiB]: bounds the
  /// token footprint resident in the tenant's decode working set, which
  /// caps its concurrent decode slots.
  double kv_cache_mb = 256.0;
  /// Replay mode: per-request shapes aligned with `trace_arrivals`
  /// (empty = draw from the means above).
  std::vector<RequestShape> trace_shapes;
  /// Admit-all or SLA-aware shedding at enqueue time.
  AdmissionPolicy admission = AdmissionPolicy::kAdmitAll;
  /// Priority class (lower = more important): orders grants of the
  /// shared-serial pool and of layer-mode shared-group handoffs.
  unsigned priority = 0;
  /// Latency SLA [s]; <= 0 derives 10x the tenant's batch-1 service time.
  double sla_s = 0.0;
};

struct ServingConfig {
  /// Base system (Table 1 by default); fidelity and photonic shape are
  /// honored, batch_size is overridden per dispatched batch.
  core::SystemConfig system;
  accel::Architecture arch = accel::Architecture::kSiph2p5D;
  std::vector<TenantSetup> tenants;
  /// Batch-granular (blocked, the validated baseline) or layer-granular
  /// (SET-style pipelined) execution — see the header comment.
  PipelineMode pipeline = PipelineMode::kBatchGranular;
  /// Record the per-batch (per-stage, in layer-granular mode) execution
  /// trace (occupancy, reconfiguration windows) into the report — for
  /// tests; costs memory on long runs.
  bool record_batches = false;
  /// Runtime-elasticity policy: EMA-driven re-partitioning, idle
  /// power-gating, fault injection, and client retry (see elastic.hpp).
  /// The default is inert — bit-identical to the static run.
  ElasticSpec elastic;
  /// Observability sink (request-lifecycle trace spans + metric
  /// snapshots). Null disables observability at near-zero cost; attaching
  /// a recorder never changes the simulation's results. Not owned; must
  /// outlive simulate(). See obs/recorder.hpp for the threading contract.
  obs::Recorder* recorder = nullptr;
};

/// The co-location wiring simulate() runs on, exposed so benches and
/// tools can anchor capacity numbers against the *exact* partitions the
/// simulator serves: models resolved by name, the pool split by MAC-kind
/// demand, and one oracle tenant per model with its partitioned platform
/// applied (monolithic: every tenant on the shared die).
struct ColocatedSetup {
  std::vector<dnn::Model> models;
  /// Each model's MAC-kind demand at weight 1: what `plan` partitions.
  std::vector<TenantDemand> demands;
  ColocationPlan plan;
  std::vector<ServiceTimeOracle::Tenant> oracle_tenants;
};

/// Resolve `model_names` against the system's pool, every tenant at an
/// equal contended-group share.
[[nodiscard]] ColocatedSetup make_colocated_setup(
    const core::SystemConfig& system, accel::Architecture arch,
    const std::vector<std::string>& model_names);

/// Run one serving simulation to completion (all arrivals served).
/// Applies make_serving_config's rules again, and throws
/// std::invalid_argument for an elastic `bucket=` too narrow for the
/// open-loop arrivals.
[[nodiscard]] ServingReport simulate(const ServingConfig& config);

/// Resolve a sweepable ServingSpec against a base system configuration:
/// tenants from the mix (equal load/request split, per-tenant seeds
/// seed+i), the spec's batching policy on every tenant, and the trace
/// loaded/partitioned when `trace_path` is set. Throws
/// std::invalid_argument naming the field and its value for a spec
/// serving cannot run (token geometry, KV budget, batch policy, elastic
/// faults and re-partitioning against the pipeline mode and the pool).
[[nodiscard]] ServingConfig make_serving_config(
    const core::SystemConfig& base, accel::Architecture arch,
    const ServingSpec& spec);

}  // namespace optiplet::serve
