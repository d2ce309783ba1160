#include "serve/serving_spec.hpp"

#include <cmath>
#include <stdexcept>

#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace optiplet::serve {

namespace {

std::uint32_t draw_token_count(std::uint32_t mean, double spread,
                               util::Xoshiro256& rng) {
  if (mean == 0) {
    return 0;
  }
  const double u = 2.0 * rng.next_double() - 1.0;  // uniform in [-1, 1)
  const double drawn = static_cast<double>(mean) * (1.0 + spread * u);
  const auto rounded = static_cast<std::uint32_t>(std::lround(drawn));
  return rounded < 1 ? 1 : rounded;
}

}  // namespace

RequestShape draw_request_shape(std::uint32_t prefill_mean,
                                std::uint32_t decode_mean, double spread,
                                util::Xoshiro256& rng) {
  OPTIPLET_REQUIRE(spread >= 0.0 && spread < 1.0,
                   "token_spread must be in [0, 1)");
  OPTIPLET_REQUIRE(prefill_mean > 0 || decode_mean == 0,
                   "decode_tokens requires a positive prefill_tokens");
  RequestShape shape{prefill_mean, decode_mean};
  if (spread > 0.0) {
    shape.prefill_tokens = draw_token_count(prefill_mean, spread, rng);
    shape.decode_tokens = draw_token_count(decode_mean, spread, rng);
  }
  return shape;
}

std::vector<std::string> split_mix(std::string_view mix) {
  return util::split(mix, '+');
}

std::vector<std::string> ServingSpec::tenants() const {
  return split_mix(tenant_mix);
}

std::vector<unsigned> ServingSpec::priorities() const {
  const std::size_t n = tenants().size();
  if (priority_mix.empty()) {
    return std::vector<unsigned>(n, 0u);
  }
  const std::vector<std::string> parts = util::split(priority_mix, '+');
  if (parts.size() != n) {
    throw std::invalid_argument(
        "priority_mix \"" + priority_mix + "\" names " +
        std::to_string(parts.size()) + " classes for " + std::to_string(n) +
        " tenants");
  }
  std::vector<unsigned> classes;
  classes.reserve(n);
  for (const auto& part : parts) {
    const auto value = util::parse_number<unsigned>(part);
    if (!value) {
      throw std::invalid_argument("bad priority class in priority_mix: \"" +
                                  part + "\"");
    }
    classes.push_back(*value);
  }
  return classes;
}

}  // namespace optiplet::serve
