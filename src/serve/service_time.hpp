#pragma once
/// \file service_time.hpp
/// Memoized batch service-time oracle over core::SystemSimulator.
///
/// A serving simulation asks for the same (tenant, batch-size) service
/// time millions of times; the underlying full-system simulation is a pure
/// function of (tenant platform, model, batch, fidelity), so each distinct
/// point is simulated exactly once and the cached core::RunResult —
/// latency, energy ledger, ReSiPI reconfiguration count — is reused. This
/// is what keeps million-request serving runs fast even at cycle-accurate
/// fidelity.
///
/// Batch semantics come from SystemConfig::batch_size: weights stream once
/// per batch while compute and activation traffic scale with it, so batch
/// service time grows sublinearly — the amortization every batching policy
/// trades latency for.
///
/// Besides the whole-batch RunResult, the oracle exposes the run's
/// per-layer breakdown grouped into a LayerSchedule: the per-group
/// pipeline stages the layer-granular serving engine executes (SET-style
/// inter-layer pipelining).

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/system_config.hpp"
#include "core/system_simulator.hpp"
#include "dnn/graph.hpp"
#include "dnn/transformer.hpp"

namespace optiplet::serve {

/// A maximal run of consecutive layers on one chiplet group — the stage
/// granularity at which the layer-granular serving engine acquires and
/// releases resources.
struct PipelineStage {
  accel::MacKind group = accel::MacKind::kConv3;
  std::size_t first_layer = 0;  ///< index into core::RunResult::layers
  std::size_t layer_count = 0;
  double latency_s = 0.0;  ///< sum of the member layers
  /// Prefix offsets within the batch. start_offset_s of stage k is exactly
  /// end_offset_s of stage k-1, and the last stage's end_offset_s is
  /// exactly the batch run's latency_s, so an unstalled stage chain
  /// telescopes bit-for-bit to the batch-granular completion time.
  double start_offset_s = 0.0;
  double end_offset_s = 0.0;
};

/// The pipeline stages of one (tenant, batch) service time, grouped from
/// the full-system run's per-layer breakdown at either fidelity.
struct LayerSchedule {
  std::vector<PipelineStage> stages;
};

class ServiceTimeOracle {
 public:
  /// One tenant the oracle can serve: its model plus the SystemConfig the
  /// batch runs use (the tenant's partitioned `compute_2p5d` already
  /// applied). The config's batch_size field is overridden per lookup.
  /// Autoregressive tenants additionally carry their TransformerSpec,
  /// enabling the per-phase prefill/decode lookups below.
  struct Tenant {
    dnn::Model model;
    core::SystemConfig config;
    std::optional<dnn::TransformerSpec> transformer;
  };

  ServiceTimeOracle(std::vector<Tenant> tenants, accel::Architecture arch);
  // The phase index points into this oracle's own store, which a move
  // carries along and a copy would not.
  ServiceTimeOracle(const ServiceTimeOracle&) = delete;
  ServiceTimeOracle& operator=(const ServiceTimeOracle&) = delete;
  ServiceTimeOracle(ServiceTimeOracle&&) = default;
  ServiceTimeOracle& operator=(ServiceTimeOracle&&) = default;

  /// Service profile of one batch of `batch` requests on `tenant`
  /// (simulating on first use, cached thereafter). The reference stays
  /// valid for the oracle's lifetime.
  [[nodiscard]] const core::RunResult& batch_run(std::size_t tenant,
                                                 unsigned batch);

  /// Per-layer schedule of the same batch run (built from batch_run's
  /// per-layer breakdown on first use, cached thereafter). The reference
  /// stays valid for the oracle's lifetime. Throws std::invalid_argument
  /// for a run without a per-layer breakdown — it has no layer boundaries
  /// to pipeline on and must serve batch-granular.
  [[nodiscard]] const LayerSchedule& layer_schedule(std::size_t tenant,
                                                    unsigned batch);

  /// Service profile of one MAC-bound prefill over `tokens` prompt tokens
  /// at batch size `batch` (weights stream once per batch, so prefill
  /// amortizes exactly like a fixed-shape batch). Requires the tenant to
  /// be a transformer. Cached per (tenant, batch, tokens); the reference
  /// stays valid for the oracle's lifetime.
  [[nodiscard]] const core::RunResult& prefill_run(std::size_t tenant,
                                                   unsigned batch,
                                                   std::uint32_t tokens);

  /// Service profile of one bandwidth-bound decode step — a single fresh
  /// token per sequence attending a KV cache of `kv_tokens` — at batch
  /// size `batch`. The KV length is bucketed (kv_bucket) before
  /// simulation so a growing cache hits a bounded number of distinct
  /// simulations; pass the raw length. Requires a transformer tenant.
  /// The reference stays valid for the oracle's lifetime.
  [[nodiscard]] const core::RunResult& decode_run(std::size_t tenant,
                                                  unsigned batch,
                                                  std::uint32_t kv_tokens);

  /// The memoization bucket a raw KV length prices at for `tenant`: the
  /// length rounded up to a multiple of kKvBucket (64), clamped into the
  /// model's context window ([0, max_context - 1]). Monotone in kv_tokens,
  /// so bucketed decode cost stays non-decreasing in context length.
  [[nodiscard]] std::uint32_t kv_bucket(std::size_t tenant,
                                        std::uint32_t kv_tokens) const;
  static constexpr std::uint32_t kKvBucket = 64;

  /// The tenant's TransformerSpec, or nullopt for fixed-shape tenants.
  [[nodiscard]] const std::optional<dnn::TransformerSpec>& transformer(
      std::size_t tenant) const;

  [[nodiscard]] accel::Architecture arch() const { return arch_; }
  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }
  /// Lookups served from the cache / simulated fresh, across all tenants.
  [[nodiscard]] std::uint64_t cache_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return misses_; }

 private:
  enum Phase : std::size_t { kPrefill, kDecode };

  /// The priced points of one (tenant, phase), indexed [batch][entry]: the
  /// entry is the prompt length (prefill) or the KV bucket's ordinal
  /// (decode). Null until first priced; both dimensions grow on demand.
  using PhaseIndex = std::vector<std::vector<const core::RunResult*>>;

  /// The `entry` point of (tenant, phase, batch), which prices `tokens`
  /// (prompt length or KV bucket).
  [[nodiscard]] const core::RunResult& phase_run(std::size_t tenant,
                                                 Phase phase, unsigned batch,
                                                 std::uint32_t tokens,
                                                 std::size_t entry);
  [[nodiscard]] static LayerSchedule build_schedule(
      const core::RunResult& run);

  std::vector<Tenant> tenants_;
  accel::Architecture arch_;
  std::map<std::pair<std::size_t, unsigned>, core::RunResult> cache_;
  std::map<std::pair<std::size_t, unsigned>, LayerSchedule> schedules_;
  std::vector<std::array<PhaseIndex, 2>> phase_index_;  ///< [tenant][phase]
  /// Every priced phase point; a deque never moves its elements, so the
  /// index and the references handed out stay valid as it grows.
  std::deque<core::RunResult> phase_store_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace optiplet::serve
