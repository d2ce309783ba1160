#include "serve/elastic.hpp"

#include <limits>
#include <string>
#include <type_traits>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace optiplet::serve {

namespace {

std::string fmt(double value) {
  if (std::isinf(value)) {
    return value > 0.0 ? "inf" : "-inf";
  }
  return util::format_general(value, 17);
}

/// Read one codec number into `out`: util::parse_number's spelling, or
/// the "inf" that fmt writes for a floating-point field.
template <typename T>
bool read(const std::string& text, T& out) {
  std::optional<T> value = util::parse_number<T>(text);
  if constexpr (std::is_floating_point_v<T>) {
    if (text == "inf") {
      value = std::numeric_limits<T>::infinity();
    }
  }
  if (value) {
    out = *value;
  }
  return value.has_value();
}

}  // namespace

bool ElasticSpec::enabled() const { return !(*this == ElasticSpec{}); }

bool in_range(const ElasticSpec& spec) {
  for (const FaultSpec& fault : spec.faults) {
    if (!(fault.time_s >= 0.0 && fault.bandwidth_derate > 0.0 &&
          fault.bandwidth_derate <= 1.0 && fault.chiplet >= -1 &&
          fault.package >= -1)) {
      return false;
    }
  }
  return spec.ema_tau_s > 0.0 && spec.cooldown_s >= 0.0 &&
         spec.gate_after_s >= 0.0 && spec.wake_s >= 0.0 &&
         spec.retry_backoff_s >= 0.0 && spec.curve_bucket_s >= 0.0 &&
         spec.carbon_base_gpkwh >= 0.0 && spec.carbon_amplitude >= 0.0 &&
         spec.carbon_amplitude <= 1.0 && spec.carbon_period_s > 0.0;
}

std::string to_string(const FaultSpec& fault) {
  return "fault=" + fmt(fault.time_s) + ':' + std::to_string(fault.chiplet) +
         ':' + fmt(fault.bandwidth_derate) + ':' +
         std::to_string(fault.package);
}

std::string to_string(const ElasticSpec& spec) {
  const ElasticSpec defaults;
  std::vector<std::string> parts;
  if (std::isfinite(spec.shift_threshold)) {
    parts.push_back("shift=" + fmt(spec.shift_threshold));
  }
  if (spec.ema_tau_s != defaults.ema_tau_s) {
    parts.push_back("tau=" + fmt(spec.ema_tau_s));
  }
  if (spec.cooldown_s != defaults.cooldown_s) {
    parts.push_back("cool=" + fmt(spec.cooldown_s));
  }
  if (spec.gate) {
    parts.push_back("gate=" + fmt(spec.gate_after_s) + ':' + fmt(spec.wake_s));
  }
  if (spec.retry_max_attempts > 0) {
    parts.push_back("retry=" + std::to_string(spec.retry_max_attempts) + ':' +
                    fmt(spec.retry_backoff_s));
  }
  if (spec.curve_bucket_s > 0.0) {
    parts.push_back("bucket=" + fmt(spec.curve_bucket_s));
  }
  if (spec.carbon_base_gpkwh != defaults.carbon_base_gpkwh ||
      spec.carbon_amplitude != defaults.carbon_amplitude ||
      spec.carbon_period_s != defaults.carbon_period_s) {
    parts.push_back("carbon=" + fmt(spec.carbon_base_gpkwh) + ':' +
                    fmt(spec.carbon_amplitude) + ':' +
                    fmt(spec.carbon_period_s));
  }
  for (const FaultSpec& fault : spec.faults) {
    parts.push_back(to_string(fault));
  }
  if (parts.empty()) {
    return "static";
  }
  return util::join(parts, "/");
}

std::optional<ElasticSpec> elastic_from_string(std::string_view text) {
  ElasticSpec spec;
  if (text.empty() || text == "static") {
    return spec;
  }
  for (const std::string& part : util::split(text, '/')) {
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos) {
      return std::nullopt;
    }
    const std::string key = part.substr(0, eq);
    const std::vector<std::string> vals = util::split(part.substr(eq + 1), ':');
    if (key == "shift" && vals.size() == 1) {
      if (!read(vals[0], spec.shift_threshold)) {
        return std::nullopt;
      }
    } else if (key == "tau" && vals.size() == 1) {
      if (!read(vals[0], spec.ema_tau_s)) {
        return std::nullopt;
      }
    } else if (key == "cool" && vals.size() == 1) {
      if (!read(vals[0], spec.cooldown_s)) {
        return std::nullopt;
      }
    } else if (key == "gate" && vals.size() == 2) {
      spec.gate = true;
      if (!read(vals[0], spec.gate_after_s) || !read(vals[1], spec.wake_s)) {
        return std::nullopt;
      }
    } else if (key == "retry" && vals.size() == 2) {
      if (!read(vals[0], spec.retry_max_attempts) ||
          !read(vals[1], spec.retry_backoff_s)) {
        return std::nullopt;
      }
    } else if (key == "bucket" && vals.size() == 1) {
      if (!read(vals[0], spec.curve_bucket_s)) {
        return std::nullopt;
      }
    } else if (key == "carbon" && vals.size() == 3) {
      if (!read(vals[0], spec.carbon_base_gpkwh) ||
          !read(vals[1], spec.carbon_amplitude) ||
          !read(vals[2], spec.carbon_period_s)) {
        return std::nullopt;
      }
    } else if (key == "fault" && vals.size() == 4) {
      FaultSpec fault;
      if (!read(vals[0], fault.time_s) || !read(vals[1], fault.chiplet) ||
          !read(vals[2], fault.bandwidth_derate) ||
          !read(vals[3], fault.package)) {
        return std::nullopt;
      }
      spec.faults.push_back(fault);
    } else {
      return std::nullopt;
    }
  }
  if (!in_range(spec)) {
    return std::nullopt;
  }
  return spec;
}

}  // namespace optiplet::serve
