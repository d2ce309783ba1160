#include "span_trace.hpp"

#include <cstdio>
#include <map>
#include <utility>

namespace optiplet::perfbench {

SpanTrace::SpanTrace(bool enabled, std::string run_id)
    : enabled_(enabled),
      run_id_(std::move(run_id)),
      epoch_(std::chrono::steady_clock::now()) {}

double SpanTrace::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

SpanTrace::Scope SpanTrace::span(const char* name) {
  if (!enabled_) {
    return Scope(nullptr, 0);
  }
  spans_.push_back(Span{name, now_s(), -1.0, open_});
  open_ = static_cast<long>(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

SpanTrace::Scope::~Scope() {
  if (trace_ == nullptr) {
    return;
  }
  Span& span = trace_->spans_[index_];
  span.end_s = trace_->now_s();
  trace_->open_ = span.parent;
}

double SpanTrace::total_s(const std::string& name) const {
  double total = 0.0;
  for (const double d : durations_s(name)) {
    total += d;
  }
  return total;
}

std::vector<double> SpanTrace::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_s >= 0.0) {
      out.push_back(span.end_s - span.start_s);
    }
  }
  return out;
}

bool SpanTrace::write_json(const std::string& path) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_s - spans_[i].start_s;
    }
  }
  struct Summary {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Summary> summary;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Summary& s = summary[spans_[i].name];
    s.count += 1;
    s.total_s += spans_[i].end_s - spans_[i].start_s;
    s.self_s += self[i];
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"run\": \"%s\", \"spans\": [", run_id_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n  {\"id\": %zu, \"run\": \"%s\", \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %ld, "
                 "\"self_s\": %.9f}",
                 i == 0 ? "" : ",", i, run_id_.c_str(), s.name.c_str(),
                 s.start_s, s.end_s, s.parent, self[i]);
  }
  std::fprintf(out, "\n], \"summary\": {");
  bool first = true;
  for (const auto& [name, s] : summary) {
    std::fprintf(out,
                 "%s\n  \"%s\": {\"count\": %zu, \"total_s\": %.9f, "
                 "\"self_s\": %.9f}",
                 first ? "" : ",", name.c_str(), s.count, s.total_s, s.self_s);
    first = false;
  }
  std::fprintf(out, "\n}}\n");
  return std::fclose(out) == 0;
}

}  // namespace optiplet::perfbench
