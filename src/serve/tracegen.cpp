#include "serve/tracegen.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace optiplet::serve {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Thin a homogeneous Poisson candidate stream at `peak_rps` down to the
/// instantaneous rate: an exact non-homogeneous Poisson sample as long as
/// rate(t) <= peak_rps everywhere.
std::vector<double> thinned_arrivals(
    double peak_rps, double duration_s, util::Xoshiro256& rng,
    const std::function<double(double)>& rate) {
  std::vector<double> times;
  double t = 0.0;
  for (;;) {
    t += rng.next_exponential(1.0 / peak_rps);
    if (t >= duration_s) {
      return times;
    }
    if (rng.next_double() * peak_rps < rate(t)) {
      times.push_back(t);
    }
  }
}

/// Half-open [start, end) episodes, sorted by start; lookup walks a
/// cursor because thinning queries strictly increasing times.
class EpisodeTimeline {
 public:
  explicit EpisodeTimeline(std::vector<std::pair<double, double>> episodes)
      : episodes_(std::move(episodes)) {}

  bool contains(double t) {
    while (cursor_ < episodes_.size() && episodes_[cursor_].second <= t) {
      ++cursor_;
    }
    return cursor_ < episodes_.size() && episodes_[cursor_].first <= t;
  }

 private:
  std::vector<std::pair<double, double>> episodes_;
  std::size_t cursor_ = 0;
};

}  // namespace

std::vector<TraceEvent> generate_trace(const TraceGenSpec& spec) {
  OPTIPLET_REQUIRE(spec.base_rps > 0.0, "base rate must be positive");
  OPTIPLET_REQUIRE(spec.duration_s > 0.0, "duration must be positive");
  util::Xoshiro256 rng(spec.seed);

  std::vector<double> times;
  switch (spec.profile) {
    case TraceProfile::kDiurnal: {
      const double period =
          spec.period_s > 0.0 ? spec.period_s : spec.duration_s;
      const double amplitude = spec.amplitude;
      OPTIPLET_REQUIRE(amplitude >= 0.0 && amplitude <= 1.0,
                       "diurnal amplitude must be in [0, 1]");
      const double base = spec.base_rps;
      times = thinned_arrivals(
          base * (1.0 + amplitude), spec.duration_s, rng,
          [base, amplitude, period](double t) {
            return base * (1.0 + amplitude * std::sin(2.0 * kPi * t / period));
          });
      break;
    }
    case TraceProfile::kBursts: {
      OPTIPLET_REQUIRE(spec.burst_multiplier >= 1.0,
                       "burst multiplier must be >= 1");
      const double gap =
          spec.burst_gap_s > 0.0 ? spec.burst_gap_s : spec.duration_s / 10.0;
      const double len =
          spec.burst_len_s > 0.0 ? spec.burst_len_s : spec.duration_s / 50.0;
      // Burst starts are their own Poisson process; episodes may overlap,
      // in which case the rate stays at one multiplier (not stacked).
      std::vector<std::pair<double, double>> episodes;
      double start = 0.0;
      for (;;) {
        start += rng.next_exponential(gap);
        if (start >= spec.duration_s) {
          break;
        }
        episodes.emplace_back(start, start + rng.next_exponential(len));
      }
      // Merge overlaps so the cursor lookup sees disjoint episodes.
      std::vector<std::pair<double, double>> merged;
      for (const auto& e : episodes) {
        if (!merged.empty() && e.first <= merged.back().second) {
          merged.back().second = std::max(merged.back().second, e.second);
        } else {
          merged.push_back(e);
        }
      }
      EpisodeTimeline timeline(std::move(merged));
      const double base = spec.base_rps;
      const double burst = base * spec.burst_multiplier;
      times = thinned_arrivals(burst, spec.duration_s, rng,
                               [base, burst, &timeline](double t) {
                                 return timeline.contains(t) ? burst : base;
                               });
      break;
    }
    case TraceProfile::kMmpp: {
      const double on_rps =
          spec.on_rps >= 0.0 ? spec.on_rps : 2.0 * spec.base_rps;
      const double off_rps =
          spec.off_rps >= 0.0 ? spec.off_rps : spec.base_rps / 10.0;
      OPTIPLET_REQUIRE(on_rps > 0.0 || off_rps > 0.0,
                       "mmpp needs a positive rate in some state");
      const double on_mean =
          spec.on_s > 0.0 ? spec.on_s : spec.duration_s / 10.0;
      const double off_mean =
          spec.off_s > 0.0 ? spec.off_s : spec.duration_s / 10.0;
      // Alternate exponential sojourns, starting in the on state; record
      // the on intervals and thin against the peak of the two rates.
      std::vector<std::pair<double, double>> on_intervals;
      double t = 0.0;
      bool on = true;
      while (t < spec.duration_s) {
        const double sojourn = rng.next_exponential(on ? on_mean : off_mean);
        if (on) {
          on_intervals.emplace_back(t, t + sojourn);
        }
        t += sojourn;
        on = !on;
      }
      EpisodeTimeline timeline(std::move(on_intervals));
      times = thinned_arrivals(std::max(on_rps, off_rps), spec.duration_s,
                               rng, [on_rps, off_rps, &timeline](double t2) {
                                 return timeline.contains(t2) ? on_rps
                                                              : off_rps;
                               });
      break;
    }
  }

  std::vector<TraceEvent> events;
  events.reserve(times.size());
  for (const double time : times) {
    TraceEvent e;
    e.arrival_s = time;
    if (!spec.tenants.empty()) {
      e.tenant = spec.tenants[rng.next_below(spec.tenants.size())];
    }
    if (spec.prefill_tokens > 0) {
      e.shape = draw_request_shape(spec.prefill_tokens, spec.decode_tokens,
                                   spec.token_spread, rng);
    } else {
      OPTIPLET_REQUIRE(spec.decode_tokens == 0,
                       "decode_tokens requires a positive prefill_tokens");
    }
    events.push_back(std::move(e));
  }
  return events;
}

bool write_arrival_trace(const std::string& path,
                         const std::vector<TraceEvent>& events) {
  const bool labeled =
      std::any_of(events.begin(), events.end(),
                  [](const TraceEvent& e) { return !e.tenant.empty(); });
  const bool shaped = std::any_of(
      events.begin(), events.end(),
      [](const TraceEvent& e) { return e.shape.variable_length(); });
  std::vector<std::string> header = {"arrival_s"};
  if (labeled) {
    header.push_back("tenant");
  }
  if (shaped) {
    header.push_back("prefill_tokens");
    header.push_back("decode_tokens");
  }
  util::CsvWriter csv(path, header);
  if (!csv.ok()) {
    return false;
  }
  for (const TraceEvent& e : events) {
    std::vector<std::string> row = {util::format_general(e.arrival_s, 17)};
    if (labeled) {
      row.push_back(e.tenant);
    }
    if (shaped) {
      row.push_back(std::to_string(e.shape.prefill_tokens));
      row.push_back(std::to_string(e.shape.decode_tokens));
    }
    csv.add_row(row);
  }
  return true;
}

}  // namespace optiplet::serve
