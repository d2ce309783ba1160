#pragma once
/// \file cli_support.hpp
/// Flag parsing shared by the optiplet command-line tools.
///
/// The tools declare their interface as an OptionSet: a table of flags,
/// each with a placeholder, help text, and a parse action. The registry
/// derives everything that used to be triplicated per tool — the
/// `--flag value` / `--flag=value` walk, the generated `--help` listing,
/// the "unknown flag" / "missing value" / "flag does not take a value"
/// errors, and the valid-choice listings on bad enum values — so a new
/// spelling (like `--fidelity sampled:windows=8,seed=1`) is implemented
/// exactly once.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fidelity.hpp"
#include "dnn/registry.hpp"
#include "dnn/zoo.hpp"
#include "util/names.hpp"
#include "util/strings.hpp"

namespace optiplet::cli {

using util::join;
using util::split;

// ---------------------------------------------------------------------
// Leveled output shared by the tools. Three verbosity tiers:
//   quiet  primary results only (tables, CSV paths) — what --quiet
//          always kept
//   info   plus the run narrative on stderr (progress meter, thread
//          count, the profiling footer); the default
//   debug  plus per-scenario detail (keys, wall-clock, cache hits)

enum class LogLevel { kQuiet = 0, kInfo = 1, kDebug = 2 };

inline constexpr util::NameRow<LogLevel> kLogLevelNames[] = {
    {LogLevel::kQuiet, "quiet", {"quiet"}},
    {LogLevel::kInfo, "info", {"info"}},
    {LogLevel::kDebug, "debug", {"debug"}},
};
constexpr const auto& names(LogLevel) { return kLogLevelNames; }

/// The one printer every tool's ad-hoc printf routes through. Primary
/// results go to stdout unconditionally; narrative and detail go to
/// stderr gated by the level, so piping a tool's stdout into a file
/// stays clean at any verbosity.
class Logger {
 public:
  explicit Logger(LogLevel level = LogLevel::kInfo) : level_(level) {}

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }
  [[nodiscard]] bool info_enabled() const {
    return level_ >= LogLevel::kInfo;
  }
  [[nodiscard]] bool debug_enabled() const {
    return level_ >= LogLevel::kDebug;
  }

  /// Primary result output (tables, output-file confirmations): stdout,
  /// printed at every level.
  void result(const char* format, ...) const {
    std::va_list args;
    va_start(args, format);
    std::vfprintf(stdout, format, args);
    va_end(args);
  }

  /// Run narrative: stderr, printed at info and debug.
  void info(const char* format, ...) const {
    if (!info_enabled()) {
      return;
    }
    std::va_list args;
    va_start(args, format);
    std::vfprintf(stderr, format, args);
    va_end(args);
  }

  /// Per-scenario / internals detail: stderr, printed at debug only.
  void debug(const char* format, ...) const {
    if (!debug_enabled()) {
      return;
    }
    std::va_list args;
    va_start(args, format);
    std::vfprintf(stderr, format, args);
    va_end(args);
  }

 private:
  LogLevel level_;
};

/// Walks argv-style arguments with support for both the `--flag value`
/// and `--flag=value` spellings.
class FlagCursor {
 public:
  FlagCursor(int argc, char** argv) : args_(argv + 1, argv + argc) {}

  /// Advance to the next argument; false at the end.
  bool next() {
    if (index_ >= args_.size()) {
      return false;
    }
    flag_ = args_[index_++];
    inline_value_.reset();
    if (flag_.rfind("--", 0) == 0) {
      if (const auto eq = flag_.find('='); eq != std::string::npos) {
        inline_value_ = flag_.substr(eq + 1);
        flag_ = flag_.substr(0, eq);
      }
    }
    return true;
  }

  /// The current flag name (the part before '=' for --flag=value).
  [[nodiscard]] const std::string& flag() const { return flag_; }

  /// True when the current flag was spelled --flag=value (an error for
  /// flags that take no value).
  [[nodiscard]] bool has_inline_value() const {
    return inline_value_.has_value();
  }

  /// The current flag's value: the inline part, or the next argument
  /// (consumed). nullopt when neither exists.
  [[nodiscard]] std::optional<std::string> value() {
    if (inline_value_) {
      return inline_value_;
    }
    if (index_ >= args_.size()) {
      return std::nullopt;
    }
    return args_[index_++];
  }

 private:
  std::vector<std::string> args_;
  std::size_t index_ = 0;
  std::string flag_;
  std::optional<std::string> inline_value_;
};

/// Declarative flag table: parse + generated --help + consistent errors.
class OptionSet {
 public:
  /// A value flag's parse action: consume the value, return an error
  /// message to abort with, or nullopt on success.
  using Parse = std::function<std::optional<std::string>(const std::string&)>;

  /// `intro` is the prose printed between the "program — tagline" title
  /// and the flag listing (the tool's semantic description).
  OptionSet(std::string program, std::string intro)
      : program_(std::move(program)), intro_(std::move(intro)) {}

  /// A flag taking a value (shown as `--flag PLACEHOLDER` in --help).
  OptionSet& add(std::string flag, std::string placeholder, std::string help,
                 Parse parse) {
    entries_.push_back({std::move(flag), std::move(placeholder),
                        std::move(help), std::move(parse), nullptr, nullptr,
                        {}});
    return *this;
  }

  /// A boolean flag (no value; `on` runs when it appears).
  OptionSet& add_toggle(std::string flag, std::string help,
                        std::function<void()> on) {
    entries_.push_back({std::move(flag), {}, std::move(help), nullptr,
                        std::move(on), nullptr, {}});
    return *this;
  }

  /// An immediate flag (no value; `run` runs and its result becomes the
  /// process exit code — e.g. --list-models).
  OptionSet& add_action(std::string flag, std::string help,
                        std::function<int()> run) {
    entries_.push_back({std::move(flag), {}, std::move(help), nullptr,
                        nullptr, std::move(run), {}});
    return *this;
  }

  /// Verbatim lines inside the flag listing (section headers like the
  /// tracegen per-profile knob groups).
  OptionSet& add_text(std::string raw) {
    entries_.push_back({{}, {}, {}, nullptr, nullptr, nullptr,
                        std::move(raw)});
    return *this;
  }

  /// Trailing free-form help text (after the flag listing).
  OptionSet& set_epilog(std::string epilog) {
    epilog_ = std::move(epilog);
    return *this;
  }

  /// Print the error, point at --help, exit code 2. Shared with the
  /// tools' own post-parse validation for uniform diagnostics.
  [[nodiscard]] int fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    std::fprintf(stderr, "Run with --help for usage.\n");
    return 2;
  }

  [[nodiscard]] std::string help_text() const {
    std::string out = intro_;
    if (!out.empty() && out.back() != '\n') {
      out += '\n';
    }
    out += '\n';
    for (const auto& e : entries_) {
      if (!e.raw.empty()) {
        out += e.raw;
        out += '\n';
        continue;
      }
      std::string label = e.flag;
      if (!e.placeholder.empty()) {
        label += ' ';
        label += e.placeholder;
      }
      out += "  " + label;
      out += std::string(label.size() < 20 ? 20 - label.size() + 1 : 1, ' ');
      // Continuation lines of multi-line help indent to the same column.
      for (const char c : e.help) {
        out += c;
        if (c == '\n') {
          out += std::string(23, ' ');
        }
      }
      out += '\n';
    }
    out += "  --help               this text\n";
    if (!epilog_.empty()) {
      out += '\n';
      out += epilog_;
      if (epilog_.back() != '\n') {
        out += '\n';
      }
    }
    return out;
  }

  /// Walk argv and dispatch every flag. Returns nullopt when the tool
  /// should proceed, or the exit code to return (0 after --help or an
  /// action flag, 2 on any parse error).
  [[nodiscard]] std::optional<int> parse(int argc, char** argv) const {
    FlagCursor cursor(argc, argv);
    while (cursor.next()) {
      const std::string& arg = cursor.flag();
      const bool is_help = arg == "--help" || arg == "-h";
      const Entry* entry = nullptr;
      for (const auto& e : entries_) {
        if (!e.raw.empty() || e.flag != arg) {
          continue;
        }
        entry = &e;
        break;
      }
      if (!entry && !is_help) {
        return fail("unknown flag: " + arg);
      }
      if (is_help || !entry->parse) {
        if (cursor.has_inline_value()) {
          return fail("flag does not take a value: " + arg);
        }
        if (is_help) {
          std::fputs(help_text().c_str(), stdout);
          return 0;
        }
        if (entry->action) {
          return entry->action();
        }
        entry->toggle();
        continue;
      }
      const auto value = cursor.value();
      if (!value) {
        return fail("missing value for " + arg);
      }
      if (const auto error = entry->parse(*value)) {
        return fail(*error);
      }
    }
    return std::nullopt;
  }

 private:
  struct Entry {
    std::string flag;
    std::string placeholder;
    std::string help;
    Parse parse;                 ///< value flags
    std::function<void()> toggle;  ///< boolean flags
    std::function<int()> action;   ///< immediate-exit flags
    std::string raw;             ///< verbatim help lines
  };

  std::string program_;
  std::string intro_;
  std::string epilog_;
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------
// Parse-action factories for the recurring flag shapes. Each returns an
// OptionSet::Parse closure over the destination; error strings carry the
// valid-choice listings the tools used to hand-roll.

/// The error of a named-choice flag: "unknown <what>: <text> (valid:
/// <the table's choices>)". `also` names a spelling the caller accepts
/// before the table (optiplet_sweep's `--archs all`).
template <typename E>
std::string unknown_choice(const std::string& what, const std::string& text,
                           const std::string& also = {}) {
  return "unknown " + what + ": " + text + " (valid: " + util::choices<E>() +
         (also.empty() ? "" : ", " + also) + ")";
}

/// Comma list of named choices of an enum with a name table
/// (util/names.hpp), appended.
template <typename E>
OptionSet::Parse append_choices(std::vector<E>& out, std::string what,
                                std::string also = {}) {
  return [&out, what = std::move(what), also = std::move(also)](
             const std::string& text) -> std::optional<std::string> {
    for (const auto& name : split(text, ',')) {
      const auto value = util::parse_name<E>(name);
      if (!value) {
        return unknown_choice<E>(what, name, also);
      }
      out.push_back(*value);
    }
    return std::nullopt;
  };
}

/// One named choice of an enum with a name table, stored.
template <typename E>
OptionSet::Parse store_choice(E& out, std::string what) {
  return [&out, what = std::move(what)](
             const std::string& text) -> std::optional<std::string> {
    const auto value = util::parse_name<E>(text);
    if (!value) {
      return unknown_choice<E>(what, text);
    }
    out = *value;
    return std::nullopt;
  };
}

/// What a numeric flag accepts beyond util::parse_number's spelling.
/// kFraction is the half-open [0, 1).
enum class Range { kAny, kNonNegative, kPositive, kFraction };

/// `text` as a T within `range`, or nullopt.
template <typename T>
std::optional<T> parse_in(const std::string& text, Range range) {
  const auto value = util::parse_number<T>(text);
  if (!value || (range == Range::kPositive && *value <= T{}) ||
      (range == Range::kNonNegative && *value < T{}) ||
      (range == Range::kFraction && !(*value >= T{} && *value < T{1}))) {
    return std::nullopt;
  }
  return value;
}

/// One number in `range` (counts, seeds, seconds); a bad value fails
/// as "bad <what>: <text>".
template <typename T>
OptionSet::Parse store(T& out, std::string what, Range range = Range::kAny) {
  return [&out, what = std::move(what), range](
             const std::string& text) -> std::optional<std::string> {
    const auto value = parse_in<T>(text, range);
    if (!value) {
      return "bad " + what + ": " + text;
    }
    out = *value;
    return std::nullopt;
  };
}

/// Comma list of numbers in `range`, appended; a bad element fails as
/// "bad <what>: <element>".
template <typename T>
OptionSet::Parse append(std::vector<T>& out, std::string what,
                        Range range = Range::kAny) {
  return [&out, what = std::move(what), range](
             const std::string& text) -> std::optional<std::string> {
    for (const auto& part : split(text, ',')) {
      const auto value = parse_in<T>(part, range);
      if (!value) {
        return "bad " + what + ": " + part;
      }
      out.push_back(*value);
    }
    return std::nullopt;
  };
}

/// One string, stored verbatim.
inline OptionSet::Parse store_string(std::string& out) {
  return [&out](const std::string& text) -> std::optional<std::string> {
    out = text;
    return std::nullopt;
  };
}

/// Worker-thread count: positive, with the "omit the flag" hint.
inline OptionSet::Parse store_threads(std::size_t& out) {
  return [parse = store(out, "thread count", Range::kPositive)](
             const std::string& text) -> std::optional<std::string> {
    auto error = parse(text);
    if (error) {
      *error += " (need a positive integer; omit the flag for hardware "
                "concurrency)";
    }
    return error;
  };
}

/// Comma list of model names, validated against the model registry (the
/// Table-2 CNNs plus the transformer family) and stored as the full list
/// (later occurrences replace earlier ones).
inline OptionSet::Parse store_model_list(std::vector<std::string>& out) {
  return [&out](const std::string& text) -> std::optional<std::string> {
    const auto& registry = dnn::ModelRegistry::instance();
    auto names = split(text, ',');
    for (const auto& name : names) {
      if (registry.find(name) == nullptr) {
        return "unknown model: " + name +
               " (valid: " + join(registry.names(), ", ") + ")";
      }
    }
    out = std::move(names);
    return std::nullopt;
  };
}

/// The one --fidelity implementation all sim tools share: a comma list of
/// FidelitySpec spellings, with sampled:knob=value groups folded back
/// together by core::split_fidelity_list.
inline OptionSet::Parse append_fidelities(
    std::vector<core::FidelitySpec>& out) {
  return [&out](const std::string& text) -> std::optional<std::string> {
    for (const auto& name : core::split_fidelity_list(text)) {
      const auto spec = core::fidelity_from_string(name);
      if (!spec) {
        return "unknown fidelity: " + name + " (valid: " +
               util::choices<core::Fidelity>() +
               "[:windows=W,layers=L,seed=S,conf=C])";
      }
      out.push_back(*spec);
    }
    return std::nullopt;
  };
}

/// Shared --fidelity help text (the axis is spelled identically in
/// optiplet_sweep / optiplet_serve / optiplet_cluster).
inline std::string fidelity_help() {
  return "comma list of " + util::choices<core::Fidelity>("|") +
         " (default\n"
         "analytical). \"cycle\" drives the SiPh interposer\n"
         "cycle-accurately (SWMR/SWSR arbitration + in-cycle\n"
         "ReSiPI epochs); \"sampled\" cycle-simulates a seeded\n"
         "subset of layer windows and fast-forwards the rest\n"
         "analytically with a calibrated correction, e.g.\n"
         "sampled:windows=8,layers=1,seed=1,conf=0.95. Other\n"
         "architectures always use the analytical model";
}

/// Shared --log-level / --quiet registration. --quiet stays as the
/// shorthand for --log-level quiet that scripts and the ctest smokes
/// already use.
inline OptionSet& add_log_flags(OptionSet& options, Logger& log) {
  options
      .add("--log-level", "LEVEL",
           util::choices<LogLevel>("|") +
               " (default info): quiet keeps only\n"
               "the result output, debug adds per-scenario timing\n"
               "and cache detail on stderr",
           [&log](const std::string& text) -> std::optional<std::string> {
             const auto level = util::parse_name<LogLevel>(text);
             if (!level) {
               return unknown_choice<LogLevel>("log level", text);
             }
             log.set_level(*level);
             return std::nullopt;
           })
      .add_toggle("--quiet", "shorthand for --log-level quiet",
                  [&log] { log.set_level(LogLevel::kQuiet); });
  return options;
}

/// Shared --list-models action: the registry catalog with family and
/// derived size, so the listing can never drift from the graphs.
inline std::function<int()> list_models_action() {
  return [] {
    for (const auto& info : dnn::ModelRegistry::instance().models()) {
      std::printf("%-16s %-12s %10llu params\n", info.name.c_str(),
                  dnn::to_string(info.family),
                  static_cast<unsigned long long>(info.params));
    }
    return 0;
  };
}

}  // namespace optiplet::cli
