#pragma once
/// \file strings.hpp
/// Small string helpers shared by the CLIs, the codecs and the trace
/// reader, including the one parser every number read from text goes
/// through.

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace optiplet::util {

/// Split `text` on `sep`. Adjacent separators and leading/trailing
/// separators yield empty elements; the result is never empty.
[[nodiscard]] inline std::vector<std::string> split(std::string_view text,
                                                    char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

/// Join `parts` with `sep` ("a", "b" -> "a<sep>b").
[[nodiscard]] inline std::string join(const std::vector<std::string>& parts,
                                      const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

/// Parse all of `text` as a T, or nullopt. This is the one number
/// spelling of every flag, codec, mix string and trace column: a decimal
/// or exponent form ("0.5", "2e-3", "-1"), finite for floating-point T,
/// plain decimal digits (after a '-' for a signed T) for integral T.
/// Whitespace, '+', hex, trailing text, a sign on an unsigned T, and
/// values out of T's range all fail.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return std::nullopt;
    }
  }
  return value;
}

}  // namespace optiplet::util
