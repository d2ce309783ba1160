#pragma once
/// \file cluster_spec.hpp
/// Rack-level scale-out knobs: package count, front-end balancing policy,
/// tenant replication, and the chip-to-chip photonic link geometry.
///
/// A cluster is a rack of N identical interposer packages (each a full
/// Table-1 chiplet pool wrapping its own serving simulator) joined by
/// board-level photonic links ("Chip-to-chip photonic connectivity in
/// multi-accelerator servers for ML", arXiv 2501.18169). This header is
/// intentionally light so `engine::ScenarioSpec` can embed a ClusterSpec
/// without pulling in the simulator stack.

#include <cstddef>
#include <string>
#include <vector>

#include "util/names.hpp"

namespace optiplet::cluster {

/// Front-end dispatch policy for the shared arrival stream.
enum class BalancerPolicy {
  kRoundRobin,     ///< cycle each tenant's replicas in order
  kLeastLoaded,    ///< replica with the least accumulated expected work
  kLocalityAware,  ///< serve on the ingress package when it hosts a replica
};

inline constexpr util::NameRow<BalancerPolicy> kBalancerPolicyNames[] = {
    {BalancerPolicy::kRoundRobin, "rr", {"rr", "round-robin"}},
    {BalancerPolicy::kLeastLoaded, "least", {"least", "least-loaded"}},
    {BalancerPolicy::kLocalityAware,
     "locality",
     {"locality", "locality-aware"}},
};
constexpr const auto& names(BalancerPolicy) { return kBalancerPolicyNames; }

[[nodiscard]] constexpr const char* to_string(BalancerPolicy policy) {
  return util::name_of(policy);
}

/// The rack: how many packages, how tenants spread over them, and the
/// geometry of the package-to-package photonic links.
struct ClusterSpec {
  /// Interposer packages in the rack (each a full per-package pool).
  std::size_t packages = 1;
  /// Front-end dispatch policy.
  BalancerPolicy balancer = BalancerPolicy::kLocalityAware;
  /// Default replicas per tenant (clamped to `packages`).
  std::size_t replication = 1;
  /// Optional '+'-joined per-tenant replication factors, aligned with the
  /// serving tenant mix ("2+1" = first tenant twice, second once). Empty
  /// means every tenant uses `replication`.
  std::string replication_mix;
  /// Board-level waveguide/fiber length between two packages [m].
  double link_length_m = 0.25;
  /// WDM channels per inter-package link direction.
  std::size_t link_wavelengths = 16;

  /// Per-tenant replica counts for `tenant_count` tenants, each clamped to
  /// [1, packages]. Throws std::invalid_argument on a malformed mix.
  [[nodiscard]] std::vector<std::size_t> replications(
      std::size_t tenant_count) const;
};

}  // namespace optiplet::cluster
