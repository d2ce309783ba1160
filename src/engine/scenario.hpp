#pragma once
/// \file scenario.hpp
/// Declarative scenario grids for the sweep engine.
///
/// A `ScenarioSpec` is one fully-resolved experiment point: a Table-2 model
/// on one architecture with a concrete photonic-interposer shape (wavelength
/// count, gateways per chiplet, modulation), a batch size, and an optional
/// set of named `SystemConfig` overrides (e.g. "resipi.epoch_s"). A
/// `ScenarioGrid` is the cartesian product of per-axis value lists; its
/// `expand()` resolves empty axes to the base configuration's values and
/// pre-filters combinations that are spectrally infeasible (paper §VII:
/// wavelengths must divide across a chiplet's gateways, and the per-gateway
/// MRG row must fit inside one microring FSR for the link budget to close).
///
/// Specs are value types with a canonical string key, which is what the
/// SweepRunner's memoization cache is keyed on: two specs with equal keys
/// are by construction the same simulation.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "accel/platform.hpp"
#include "cluster/cluster_spec.hpp"
#include "core/system_config.hpp"
#include "photonics/modulation.hpp"
#include "serve/serving_spec.hpp"

namespace optiplet::engine {

/// One fully-resolved experiment point.
struct ScenarioSpec {
  /// Table-2 name, resolved via dnn::zoo::by_name — or, for serving
  /// scenarios, the '+'-joined tenant mix (every component resolved).
  std::string model;
  accel::Architecture arch = accel::Architecture::kSiph2p5D;
  unsigned batch_size = 1;
  std::size_t wavelengths = 64;
  std::size_t gateways_per_chiplet = 4;
  photonics::ModulationFormat modulation =
      photonics::ModulationFormat::kOok;
  /// Interconnect fidelity: mode (analytical / cycle / sampled) plus the
  /// sampling knobs — see core/fidelity.hpp. Encoded in key() via
  /// core::to_string(FidelitySpec), so the pure modes keep their bare-enum
  /// spellings and sampled plans carry their knobs into the identity.
  core::FidelitySpec fidelity = core::Fidelity::kAnalytical;
  /// Named SystemConfig overrides, applied after the first-class fields.
  /// Keys must come from override_keys(); kept sorted by apply()/key().
  std::vector<std::pair<std::string, double>> overrides;
  /// Request-level serving block: when set, the scenario is evaluated by
  /// serve::simulate() (arrivals + batching + co-location) instead of a
  /// single inference, and `model` names the tenant mix.
  std::optional<serve::ServingSpec> serving;
  /// Rack scale-out block: when set (requires `serving`), the scenario is
  /// evaluated by cluster::simulate() — N packages behind a front-end
  /// load balancer — and the serving metrics become the merged rack view.
  std::optional<cluster::ClusterSpec> cluster;

  /// Imprint this spec onto a configuration (photonic shape, batch size,
  /// then named overrides). Throws std::invalid_argument on unknown
  /// override keys.
  void apply(core::SystemConfig& config) const;

  /// Canonical identity string: equal keys == identical simulation inputs
  /// (relative to a shared base config). Matches apply() semantics exactly:
  /// duplicate override keys collapse to the last occurrence (last write
  /// wins) before sorting, so two specs share a key only when they imprint
  /// the same configuration.
  [[nodiscard]] std::string key() const;

  /// FNV-1a digest of key() — a compact scenario id for logs and labels.
  /// The SweepRunner memo cache keys on the full key() string (collision
  /// proof); this is the short form of the same identity.
  [[nodiscard]] std::uint64_t hash() const;
};

/// Apply one named override to a configuration. Returns false when `name`
/// is not a registered override key.
bool apply_override(core::SystemConfig& config, const std::string& name,
                    double value);

/// The registered override key names, sorted.
[[nodiscard]] std::vector<std::string> override_keys();

/// True when the scenario can physically run on `base`: gateways divide the
/// wavelengths and, for the photonic architecture, the link budget closes
/// with the spec's shape applied.
[[nodiscard]] bool feasible(const ScenarioSpec& spec,
                            const core::SystemConfig& base);

/// Declarative cartesian grid. Every empty axis means "keep the base
/// configuration's value" (and, for `models`, "all five Table-2 models").
struct ScenarioGrid {
  /// Table-2 model names; empty = all five.
  std::vector<std::string> models;
  std::vector<accel::Architecture> architectures;
  std::vector<unsigned> batch_sizes;
  std::vector<std::size_t> wavelengths;
  std::vector<std::size_t> gateways_per_chiplet;
  std::vector<photonics::ModulationFormat> modulations;
  /// Fidelity axis; empty = the base configuration's fidelity.
  std::vector<core::FidelitySpec> fidelities;
  /// Extra sweep axes over named SystemConfig overrides
  /// (e.g. {"resipi.epoch_s", {5e-6, 10e-6, 20e-6}}).
  std::vector<std::pair<std::string, std::vector<double>>> override_axes;

  /// --- serving axes ---
  /// Any non-empty serving axis switches the grid to serving mode: every
  /// expanded spec carries a serve::ServingSpec and `models` is replaced by
  /// `tenant_mixes` (empty = the defaults' mix). Unswept serving fields
  /// (max_batch, requests, seed, ...) come from `serving_defaults`.
  std::vector<double> arrival_rates_rps;
  std::vector<serve::BatchPolicy> batch_policies;
  /// Batch-granular (blocked) vs layer-granular (pipelined) execution.
  std::vector<serve::PipelineMode> pipeline_modes;
  std::vector<std::string> tenant_mixes;
  /// Open-loop (Poisson/trace) vs closed-loop (client pool) arrivals.
  std::vector<serve::ArrivalSource> arrival_sources;
  /// Closed-loop users-per-tenant axis; only meaningful combined with
  /// serve::ArrivalSource::kClosedLoop (open-loop specs ignore it, and
  /// their keys collapse in the memo cache).
  std::vector<unsigned> user_counts;
  /// Admit-all baseline vs SLA-aware shedding.
  std::vector<serve::AdmissionPolicy> admission_policies;
  /// Transformer token-geometry axes (mean prompt / generated tokens).
  /// Only meaningful for mixes of transformer tenants; a zero prefill
  /// keeps the spec fixed-shape.
  std::vector<std::uint32_t> prefill_token_counts;
  std::vector<std::uint32_t> decode_token_counts;
  /// Elastic-policy axis as serve::elastic_from_string codec strings
  /// ("static", "shift=0.2/gate=1e-3:1e-4", ...). Expansion parses each
  /// entry; an unparseable policy throws std::invalid_argument.
  std::vector<std::string> elastic_policies;
  serve::ServingSpec serving_defaults;

  /// --- cluster axes ---
  /// Any non-empty cluster axis switches the grid to cluster mode (which
  /// implies serving mode): every expanded spec carries a
  /// cluster::ClusterSpec on top of its serving block. Unswept cluster
  /// fields (link geometry, replication mix, ...) come from
  /// `cluster_defaults`.
  std::vector<std::size_t> package_counts;
  std::vector<cluster::BalancerPolicy> balancer_policies;
  std::vector<std::size_t> replication_factors;
  cluster::ClusterSpec cluster_defaults;

  /// True when any cluster axis is non-empty.
  [[nodiscard]] bool cluster_mode() const;

  /// True in cluster mode, or when the tenant-mix axis or any serving
  /// axis is non-empty.
  [[nodiscard]] bool serving_mode() const;

  /// Grid size before feasibility filtering.
  [[nodiscard]] std::size_t raw_size() const;

  /// Expand to the feasible spec list. Nesting order (outer to inner):
  /// fidelity, wavelengths, gateways, modulation, batch, the serving axes
  /// (rate, batch policy, pipeline, source, users, admission, prefill,
  /// decode, elastic), the cluster axes (packages, balancer, replication),
  /// override axes, architecture, model — so a fixed interposer shape
  /// yields a contiguous (architecture-major, model-minor) block, the
  /// layout the benches consume. Throws std::invalid_argument for unknown
  /// override keys, empty or duplicate override axes, unknown model names
  /// or unparseable elastic policies.
  [[nodiscard]] std::vector<ScenarioSpec> expand(
      const core::SystemConfig& base) const;
};

}  // namespace optiplet::engine
