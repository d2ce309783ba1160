#pragma once
/// \file serving_spec.hpp
/// The sweepable description of one request-level serving experiment.
///
/// A `ServingSpec` is to the serving simulator what the photonic-shape
/// fields of an `engine::ScenarioSpec` are to a single inference: a compact
/// value type naming every input that changes the outcome — offered load,
/// batching policy, the co-located tenant mix, request count, seed, and the
/// SLA — so two equal specs are by construction the same simulation. The
/// engine embeds it as an optional block on `ScenarioSpec` and folds it
/// into the scenario key.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/elastic.hpp"
#include "util/names.hpp"

namespace optiplet::util {
class Xoshiro256;
}

namespace optiplet::serve {

/// Admission/batching policy of one tenant's queue.
enum class BatchPolicy {
  /// FIFO, one request per batch: the latency-optimal policy at low load.
  kNone,
  /// Wait for exactly `max_batch` requests (flushing the remainder when the
  /// arrival stream ends): the throughput-optimal policy under saturation.
  kFixedSize,
  /// Deadline-bounded dynamic batching: dispatch when `max_batch` requests
  /// are queued or the oldest has waited `max_wait_s`, whichever first.
  kDeadline,
  /// Continuous (iteration-level) batching for autoregressive tenants:
  /// requests join and leave the running decode batch at token
  /// boundaries, and waiting prefills are admitted into the bubbles
  /// freed by completions. Requires token geometry (prefill_tokens > 0);
  /// fixed-shape tenants are rejected at setup.
  kContinuous,
};

inline constexpr util::NameRow<BatchPolicy> kBatchPolicyNames[] = {
    {BatchPolicy::kNone, "none", {"none", "fifo", "no-batch"}},
    {BatchPolicy::kFixedSize, "size", {"size", "fixed", "fixed-size"}},
    {BatchPolicy::kDeadline, "deadline", {"deadline", "dynamic"}},
    {BatchPolicy::kContinuous, "cont", {"cont", "continuous"}},
};
constexpr const auto& names(BatchPolicy) { return kBatchPolicyNames; }

[[nodiscard]] constexpr const char* to_string(BatchPolicy p) {
  return util::name_of(p);
}

/// Execution granularity of a tenant's batches on its chiplet partition.
enum class PipelineMode {
  /// A batch occupies the whole partition (and any shared-serial group)
  /// for its full service time — the validated baseline.
  kBatchGranular,
  /// SET-style inter-layer pipelining: a batch advances through per-layer
  /// stages, so layer k of batch i overlaps layer k+1 of batch i-1 on
  /// disjoint chiplet groups, and scarce shared-serial groups are handed
  /// off between tenants at layer boundaries.
  kLayerGranular,
};

inline constexpr util::NameRow<PipelineMode> kPipelineModeNames[] = {
    {PipelineMode::kBatchGranular, "batch", {"batch", "blocked"}},
    {PipelineMode::kLayerGranular, "layer", {"layer", "pipelined"}},
};
constexpr const auto& names(PipelineMode) { return kPipelineModeNames; }

[[nodiscard]] constexpr const char* to_string(PipelineMode m) {
  return util::name_of(m);
}

/// How a tenant's request stream is generated.
enum class ArrivalSource {
  /// Open loop: a seeded Poisson process (or a replayed trace) issues
  /// requests regardless of how the system is doing — load never
  /// self-throttles, so queues grow without bound past saturation.
  kOpenLoop,
  /// Closed loop: a pool of `users` concurrent clients per tenant. Each
  /// user thinks for an exponential time (mean `think_s`), issues one
  /// request, and only thinks again after its response (or shed notice)
  /// returns — interactive traffic whose offered load flattens at
  /// saturation instead of blowing the queue up.
  kClosedLoop,
};

inline constexpr util::NameRow<ArrivalSource> kArrivalSourceNames[] = {
    {ArrivalSource::kOpenLoop, "open", {"open", "poisson"}},
    {ArrivalSource::kClosedLoop, "closed", {"closed", "closed-loop"}},
};
constexpr const auto& names(ArrivalSource) { return kArrivalSourceNames; }

[[nodiscard]] constexpr const char* to_string(ArrivalSource s) {
  return util::name_of(s);
}

/// What happens to a request at enqueue time.
enum class AdmissionPolicy {
  /// Every arrival joins the queue — the validated baseline; SLA
  /// violations are reported but never acted on.
  kAdmitAll,
  /// SLA-aware shedding: an arrival whose completion the service-time
  /// oracle predicts past the tenant's SLA deadline is rejected
  /// immediately (counted as shed, never executed), keeping the admitted
  /// tail bounded the way a real operator's load shedder would.
  kSlaShed,
};

inline constexpr util::NameRow<AdmissionPolicy> kAdmissionPolicyNames[] = {
    {AdmissionPolicy::kAdmitAll, "all", {"all", "none", "admit-all"}},
    {AdmissionPolicy::kSlaShed, "shed", {"shed", "sla-shed"}},
};
constexpr const auto& names(AdmissionPolicy) { return kAdmissionPolicyNames; }

[[nodiscard]] constexpr const char* to_string(AdmissionPolicy p) {
  return util::name_of(p);
}

/// Variable-length request geometry of an autoregressive tenant: prompt
/// tokens costed in the MAC-bound prefill phase, generated tokens costed
/// one bandwidth-bound decode step each. `{0, 0}` marks a fixed-shape
/// (CNN) request.
struct RequestShape {
  std::uint32_t prefill_tokens = 0;
  std::uint32_t decode_tokens = 0;

  [[nodiscard]] bool variable_length() const { return prefill_tokens > 0; }
  [[nodiscard]] std::uint64_t total_tokens() const {
    return static_cast<std::uint64_t>(prefill_tokens) + decode_tokens;
  }
  [[nodiscard]] bool operator==(const RequestShape&) const = default;
};

/// Draw one request shape around the mean token counts: each count lands
/// uniformly in mean*(1 ± spread), rounded to the nearest token and
/// clamped to >= 1 when its mean is positive. `spread == 0` returns the
/// exact means *without consuming the RNG* — bit-exact degeneracy tests
/// and pre-token trace reproducibility rely on both properties. Shared by
/// the trace generator and the simulator's synthetic arrival paths so a
/// generated trace and an in-process draw price identically.
[[nodiscard]] RequestShape draw_request_shape(std::uint32_t prefill_mean,
                                              std::uint32_t decode_mean,
                                              double spread,
                                              util::Xoshiro256& rng);

/// One fully-resolved serving experiment point.
struct ServingSpec {
  /// Aggregate offered load across all tenants [requests/s]; split evenly
  /// over the tenant mix. Ignored when `trace_path` is set.
  double arrival_rps = 200.0;
  BatchPolicy policy = BatchPolicy::kNone;
  /// Batch-granular (blocked) or layer-granular (pipelined) execution.
  PipelineMode pipeline = PipelineMode::kBatchGranular;
  /// Batch-size bound for kFixedSize (exact) and kDeadline (upper bound).
  unsigned max_batch = 8;
  /// kDeadline only: the oldest queued request's maximum wait [s].
  double max_wait_s = 1.0e-3;
  /// Co-located tenants as '+'-joined Table-2 model names ("LeNet5+VGG16").
  /// Each tenant owns a disjoint slice of the chiplet pool (see
  /// serve::partition_pool) and an equal share of the offered load.
  std::string tenant_mix = "LeNet5";
  /// Total request arrivals across the mix (split evenly; remainder to the
  /// earlier tenants).
  std::uint64_t requests = 2000;
  /// Seed of the deterministic Poisson arrival processes (tenant i draws
  /// from seed + i).
  std::uint64_t seed = 42;
  /// Per-request latency SLA [s]; <= 0 derives 10x the tenant's batch-1
  /// service time (a conventional "10x isolated latency" serving SLO).
  double sla_s = 0.0;
  /// Optional CSV arrival trace replayed instead of the Poisson processes
  /// (columns: arrival_s[,tenant]); see serve::load_arrival_trace.
  std::string trace_path;
  /// Open-loop (Poisson/trace) or closed-loop (client pool) arrivals.
  /// kClosedLoop is incompatible with `trace_path` and ignores
  /// `arrival_rps`; `requests` stays the total issue budget.
  ArrivalSource source = ArrivalSource::kOpenLoop;
  /// kClosedLoop: concurrent users per tenant.
  unsigned users = 16;
  /// kClosedLoop: mean exponential think time between a user's response
  /// and its next request [s].
  double think_s = 10.0e-3;
  /// Admit-all baseline or SLA-aware shedding at enqueue time.
  AdmissionPolicy admission = AdmissionPolicy::kAdmitAll;
  /// '+'-joined per-tenant priority classes aligned with `tenant_mix`
  /// ("0+1"); lower is more important. Empty = every tenant class 0.
  /// Priority orders grants of contended shared resources (the
  /// shared-serial chiplet pool and layer-mode group handoffs).
  std::string priority_mix;
  /// Mean prompt length for transformer tenants [tokens]. Zero (the
  /// default) keeps every request fixed-shape, which is the only valid
  /// setting for CNN tenants — scenario keys and CSV rows are then
  /// byte-identical to the pre-token schema.
  std::uint32_t prefill_tokens = 0;
  /// Mean generated-token count for transformer tenants. Zero with
  /// positive `prefill_tokens` prices requests as pure prefill.
  std::uint32_t decode_tokens = 0;
  /// Relative half-width of the per-request uniform token-count draw in
  /// [0, 1): request lengths land in mean*(1 ± spread), seeded per
  /// tenant. Zero makes every request exactly the mean (bit-exact
  /// degeneracy tests rely on this).
  double token_spread = 0.0;
  /// Per-tenant KV-cache (activation-buffer) budget [MiB]. Bounds the
  /// tokens resident in a tenant's decode working set and thereby caps
  /// its concurrent decode slots.
  double kv_cache_mb = 256.0;
  /// Runtime-elasticity policy (re-partitioning, power-gating, faults,
  /// retry). The default is provably inert — see elastic.hpp.
  ElasticSpec elastic;

  /// Tenant model names of `tenant_mix`, in order ("A+B" -> {"A", "B"}).
  [[nodiscard]] std::vector<std::string> tenants() const;

  /// Per-tenant priority classes resolved against `tenant_mix`: the parsed
  /// `priority_mix`, or all zeros when it is empty. Throws
  /// std::invalid_argument on a length mismatch or an unparseable class.
  [[nodiscard]] std::vector<unsigned> priorities() const;
};

/// Split a '+'-joined mix string into its tenant model names.
[[nodiscard]] std::vector<std::string> split_mix(std::string_view mix);

}  // namespace optiplet::serve
