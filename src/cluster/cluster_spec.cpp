#include "cluster/cluster_spec.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace optiplet::cluster {

std::vector<std::size_t> ClusterSpec::replications(
    std::size_t tenant_count) const {
  if (packages < 1) {
    throw std::invalid_argument("cluster needs at least one package");
  }
  const auto clamp = [this](std::size_t factor) {
    return std::clamp<std::size_t>(factor, 1, packages);
  };
  if (replication_mix.empty()) {
    return std::vector<std::size_t>(tenant_count, clamp(replication));
  }
  const std::vector<std::string> parts = util::split(replication_mix, '+');
  if (parts.size() != tenant_count) {
    throw std::invalid_argument(
        "replication_mix \"" + replication_mix + "\" names " +
        std::to_string(parts.size()) + " factors for " +
        std::to_string(tenant_count) + " tenants");
  }
  std::vector<std::size_t> factors;
  factors.reserve(tenant_count);
  for (const auto& part : parts) {
    const auto value = util::parse_number<std::size_t>(part);
    if (!value || *value < 1) {
      throw std::invalid_argument("bad replication factor \"" + part +
                                  "\" in replication_mix");
    }
    factors.push_back(clamp(*value));
  }
  return factors;
}

}  // namespace optiplet::cluster
