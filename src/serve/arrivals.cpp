#include "serve/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

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

/// Strict non-negative integer parse for trace token columns.
std::uint32_t parse_token_count(const std::string& text) {
  unsigned long value = 0;
  std::size_t used = 0;
  try {
    value = std::stoul(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || value > 0xffffffffUL) {
    throw std::invalid_argument("bad token count in trace: \"" + text +
                                "\"");
  }
  return static_cast<std::uint32_t>(value);
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
    try {
      std::size_t used = 0;
      e.arrival_s = std::stod(row[*time_col], &used);
      if (used != row[*time_col].size()) {
        throw std::invalid_argument("trailing characters");
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("bad arrival_s value in trace: \"" +
                                  row[*time_col] + "\"");
    }
    // std::stod accepts "nan" and "inf"; neither is a time the event
    // queue can schedule.
    if (!std::isfinite(e.arrival_s) || e.arrival_s < 0.0) {
      throw std::invalid_argument(
          "arrival_s must be finite and non-negative, got \"" +
          row[*time_col] + "\" in trace: " + path);
    }
    if (tenant_col && row.size() > *tenant_col) {
      e.tenant = row[*tenant_col];
    }
    if (prefill_col) {
      if (row.size() <= *prefill_col || row.size() <= *decode_col) {
        throw std::invalid_argument("short row in arrival trace: " + path);
      }
      e.shape.prefill_tokens = parse_token_count(row[*prefill_col]);
      e.shape.decode_tokens = parse_token_count(row[*decode_col]);
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
