#pragma once
/// \file span_trace.hpp
/// Host-time spans recorded around the benchmark's calls into each layer.
///
/// A span is a named [start, end) interval of host time with a parent (the
/// span that was open when it started) and the run id of the invocation.
/// Spans stay in memory and are written once, when the run ends. All spans
/// of one SpanTrace come from a single thread, so children nest strictly
/// inside their parent and never overlap each other: a span's self time is
/// its duration minus the sum of its children's durations.

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace optiplet::perfbench {

class SpanTrace {
 public:
  /// A disabled trace records nothing and costs one branch per span.
  SpanTrace(bool enabled, std::string run_id);

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(SpanTrace* trace, std::size_t index) : trace_(trace), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace* trace_;
    std::size_t index_;
  };

  /// Open a span that closes when the returned scope ends.
  [[nodiscard]] Scope span(const char* name);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Sum of the durations of every closed span called `name` [s].
  [[nodiscard]] double total_s(const std::string& name) const;

  /// Durations of every closed span called `name`, in start order [s].
  [[nodiscard]] std::vector<double> durations_s(const std::string& name) const;

  /// Write every span plus a per-name summary (count, total and self time)
  /// as one JSON document. Returns false when the file cannot be written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;  ///< negative while open
    long parent = -1;     ///< index into spans_, -1 for a root
  };

  [[nodiscard]] double now_s() const;

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  long open_ = -1;  ///< innermost open span
};

}  // namespace optiplet::perfbench
