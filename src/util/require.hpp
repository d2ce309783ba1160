#pragma once
/// \file require.hpp
/// Precondition checking for public APIs (CppCoreGuidelines I.5 / I.6).
///
/// OPTIPLET_REQUIRE is used at module boundaries to validate arguments and
/// configuration; violations are programmer errors and throw
/// std::invalid_argument with a message carrying the failed expression and
/// location. Internal invariants use OPTIPLET_ASSERT, which throws the
/// same way; the name only marks a failure as a bug inside the library.

#include <sstream>
#include <stdexcept>
#include <string>

namespace optiplet::util {

[[noreturn]] inline void throw_requirement_failure(const char* expr,
                                                   const char* file, int line,
                                                   const std::string& msg) {
  std::ostringstream os;
  os << "requirement failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) {
    os << " — " << msg;
  }
  throw std::invalid_argument(os.str());
}

}  // namespace optiplet::util

/// Validate a precondition on a public API; throws std::invalid_argument.
#define OPTIPLET_REQUIRE(expr, msg)                                       \
  do {                                                                    \
    if (!(expr)) {                                                        \
      ::optiplet::util::throw_requirement_failure(#expr, __FILE__,        \
                                                  __LINE__, (msg));       \
    }                                                                     \
  } while (false)

/// Internal invariant; violations indicate a bug inside the library.
/// Throws std::invalid_argument exactly like OPTIPLET_REQUIRE.
#define OPTIPLET_ASSERT(expr, msg) OPTIPLET_REQUIRE(expr, msg)
