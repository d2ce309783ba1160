#pragma once
/// \file names.hpp
/// The name table behind every enum the CLIs parse.
///
/// Each such enum keeps one constexpr table next to its definition. A row
/// holds a value, the name `to_string` returns (what keys, CSV cells,
/// result tables and trace args carry) and the spellings a parser accepts;
/// the first spelling is the one valid-choice lists and `--help` show. The
/// enum's namespace declares `names(E)` returning its table, which the
/// helpers below find by argument-dependent lookup, so adding a value to
/// an enum is one row.

#include <array>
#include <optional>
#include <string>
#include <string_view>

namespace optiplet::util {

template <typename E>
struct NameRow {
  E value;
  const char* name;
  /// Accepted spellings, first the one choice lists show; unused slots
  /// stay null.
  std::array<const char*, 3> spellings;
};

/// The `to_string` name of `value`; "?" for a value outside the table.
template <typename E>
[[nodiscard]] constexpr const char* name_of(E value) {
  for (const NameRow<E>& row : names(E{})) {
    if (row.value == value) {
      return row.name;
    }
  }
  return "?";
}

/// The value `text` spells, or nullopt (unknown or empty text).
template <typename E>
[[nodiscard]] constexpr std::optional<E> parse_name(std::string_view text) {
  for (const NameRow<E>& row : names(E{})) {
    for (const char* spelling : row.spellings) {
      if (spelling != nullptr && text == spelling) {
        return row.value;
      }
    }
  }
  return std::nullopt;
}

/// Every row's first spelling, joined by `separator`: "none, size" for
/// error messages, "none|size" for `--help`.
template <typename E>
[[nodiscard]] std::string choices(std::string_view separator = ", ") {
  std::string out;
  for (const NameRow<E>& row : names(E{})) {
    if (!out.empty()) {
      out += separator;
    }
    out += row.spellings[0];
  }
  return out;
}

}  // namespace optiplet::util
