#include "core/fidelity.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace optiplet::core {
namespace {

/// Shortest %g spelling that parses back to exactly `value` — canonical
/// (one spelling per double) without dragging 17-digit noise into keys
/// and CSV cells for round knob values like 0.95.
std::string format_shortest(double value) {
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (util::parse_number<double>(buf) == value) {
      return buf;
    }
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool is_sampling_knob(std::string_view name) {
  return name == "windows" || name == "w" || name == "layers" ||
         name == "l" || name == "seed" || name == "s" || name == "conf" ||
         name == "confidence";
}

/// Apply one `knob=value` pair; false on unknown knob or bad value.
bool apply_knob(FidelitySpec& spec, std::string_view name,
                std::string_view value) {
  if (name == "windows" || name == "w") {
    const auto v = util::parse_number<std::uint64_t>(value);
    if (!v || *v > 1u << 20) {
      return false;
    }
    spec.windows = static_cast<unsigned>(*v);
    return true;
  }
  if (name == "layers" || name == "l") {
    const auto v = util::parse_number<std::uint64_t>(value);
    if (!v || *v == 0 || *v > 1u << 20) {
      return false;
    }
    spec.window_layers = static_cast<unsigned>(*v);
    return true;
  }
  if (name == "seed" || name == "s") {
    const auto v = util::parse_number<std::uint64_t>(value);
    if (!v) {
      return false;
    }
    spec.seed = *v;
    return true;
  }
  if (name == "conf" || name == "confidence") {
    const auto v = util::parse_number<double>(value);
    if (!v || !(*v > 0.0 && *v < 1.0)) {
      return false;
    }
    spec.confidence = *v;
    return true;
  }
  return false;
}

}  // namespace

std::string to_string(const FidelitySpec& spec) {
  if (spec.mode != Fidelity::kSampled) {
    return to_string(spec.mode);
  }
  std::ostringstream os;
  os << "sampled:windows=" << spec.windows << ",layers=" << spec.window_layers
     << ",seed=" << spec.seed << ",conf=" << format_shortest(spec.confidence);
  return os.str();
}

std::optional<FidelitySpec> fidelity_from_string(std::string_view name) {
  const std::size_t colon = name.find(':');
  const std::string_view head =
      colon == std::string_view::npos ? name : name.substr(0, colon);
  const std::string_view knobs =
      colon == std::string_view::npos ? std::string_view{}
                                      : name.substr(colon + 1);
  const std::optional<Fidelity> mode = util::parse_name<Fidelity>(head);
  if (!mode ||
      (colon != std::string_view::npos && *mode != Fidelity::kSampled)) {
    return std::nullopt;  // knobs only exist on the sampled mode
  }
  FidelitySpec spec(*mode);
  if (colon == std::string_view::npos) {
    return spec;  // a pure mode, or sampled with every knob at its default
  }
  if (knobs.empty()) {
    return std::nullopt;  // "sampled:" with nothing after the colon
  }
  for (const auto& pair : util::split(std::string(knobs), ',')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos ||
        !apply_knob(spec, std::string_view(pair).substr(0, eq),
                    std::string_view(pair).substr(eq + 1))) {
      return std::nullopt;
    }
  }
  return spec;
}

std::vector<std::string> split_fidelity_list(std::string_view text) {
  std::vector<std::string> out;
  for (const auto& part : util::split(std::string(text), ',')) {
    const std::size_t eq = part.find('=');
    const bool continues_sampled =
        !out.empty() && out.back().rfind("sampled", 0) == 0 &&
        eq != std::string::npos &&
        is_sampling_knob(std::string_view(part).substr(0, eq));
    if (continues_sampled) {
      // A knob token belongs to the sampled entry before it; re-attach
      // with ':' when the entry has no knob list yet.
      out.back() += out.back().find(':') == std::string::npos ? ':' : ',';
      out.back() += part;
    } else {
      out.push_back(part);
    }
  }
  return out;
}

std::vector<bool> sampled_layer_mask(std::size_t layer_count,
                                     const FidelitySpec& spec,
                                     std::uint64_t salt) {
  std::vector<bool> mask(layer_count, false);
  if (spec.mode != Fidelity::kSampled || layer_count == 0 ||
      spec.windows == 0) {
    return mask;
  }
  const std::size_t span = spec.window_layers;
  const std::size_t windows = spec.windows;
  if (windows * span >= layer_count) {
    mask.assign(layer_count, true);
    return mask;
  }
  // One window per equal stratum of the layer range; the start lands on a
  // seeded draw within the stratum, clamped so the window fits.
  util::SplitMix64 mixer(spec.seed);
  util::Xoshiro256 rng(mixer.next() ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                       (static_cast<std::uint64_t>(layer_count) << 20));
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = w * layer_count / windows;
    const std::size_t hi = (w + 1) * layer_count / windows;
    std::size_t start = lo + rng.next_below(hi - lo);
    start = std::min(start, layer_count - span);
    for (std::size_t k = start; k < start + span; ++k) {
      mask[k] = true;
    }
  }
  return mask;
}

}  // namespace optiplet::core
