#include "serve/arrivals.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace optiplet::serve {

std::vector<double> poisson_arrivals(double rate_rps, std::uint64_t count,
                                     std::uint64_t seed) {
  OPTIPLET_REQUIRE(rate_rps > 0.0, "arrival rate must be positive");
  util::Xoshiro256 rng(seed);
  std::vector<double> arrivals;
  arrivals.reserve(count);
  double t = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) {
    t += rng.next_exponential(1.0 / rate_rps);
    arrivals.push_back(t);
  }
  return arrivals;
}

namespace {

std::uint32_t parse_token_count(const std::string& text,
                                const char* column, const std::string& path) {
  const auto value = util::parse_number<std::uint32_t>(text);
  if (!value) {
    throw std::invalid_argument(std::string("bad ") + column + " \"" + text +
                                "\" (need a token count) in trace: " + path);
  }
  return *value;
}

}  // namespace

std::vector<TraceEvent> load_arrival_trace(const std::string& path) {
  const auto doc = util::read_csv_file(path);
  if (!doc) {
    throw std::invalid_argument("cannot read arrival trace: " + path);
  }
  const auto time_col = doc->column("arrival_s");
  if (!time_col) {
    throw std::invalid_argument("arrival trace missing arrival_s column: " +
                                path);
  }
  const auto tenant_col = doc->column("tenant");
  const auto prefill_col = doc->column("prefill_tokens");
  const auto decode_col = doc->column("decode_tokens");
  if (prefill_col.has_value() != decode_col.has_value()) {
    throw std::invalid_argument(
        "arrival trace must carry both prefill_tokens and decode_tokens "
        "or neither: " +
        path);
  }
  std::vector<TraceEvent> events;
  events.reserve(doc->rows.size());
  for (const auto& row : doc->rows) {
    if (row.size() <= *time_col) {
      throw std::invalid_argument("short row in arrival trace: " + path);
    }
    TraceEvent e;
    const auto arrival_s = util::parse_number<double>(row[*time_col]);
    if (!arrival_s || *arrival_s < 0.0) {
      throw std::invalid_argument(
          "bad arrival_s \"" + row[*time_col] +
          "\" (need a finite, non-negative time) in trace: " + path);
    }
    e.arrival_s = *arrival_s;
    if (tenant_col && row.size() > *tenant_col) {
      e.tenant = row[*tenant_col];
    }
    if (prefill_col) {
      if (row.size() <= *prefill_col || row.size() <= *decode_col) {
        throw std::invalid_argument("short row in arrival trace: " + path);
      }
      e.shape.prefill_tokens =
          parse_token_count(row[*prefill_col], "prefill_tokens", path);
      e.shape.decode_tokens =
          parse_token_count(row[*decode_col], "decode_tokens", path);
      if (e.shape.decode_tokens > 0 && e.shape.prefill_tokens == 0) {
        throw std::invalid_argument(
            "trace row generates tokens from an empty prompt: " + path);
      }
    }
    events.push_back(std::move(e));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.arrival_s < b.arrival_s;
                   });
  return events;
}

std::vector<double> trace_arrivals_for(const std::vector<TraceEvent>& events,
                                       const std::string& tenant) {
  std::vector<double> arrivals;
  for (const auto& e : events) {
    if (e.tenant.empty() || e.tenant == tenant) {
      arrivals.push_back(e.arrival_s);
    }
  }
  return arrivals;
}

std::vector<RequestShape> trace_shapes_for(
    const std::vector<TraceEvent>& events, const std::string& tenant) {
  std::vector<RequestShape> shapes;
  for (const auto& e : events) {
    if (e.tenant.empty() || e.tenant == tenant) {
      shapes.push_back(e.shape);
    }
  }
  return shapes;
}

}  // namespace optiplet::serve
