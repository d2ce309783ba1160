#pragma once
/// \file tracegen.hpp
/// Synthetic arrival-trace generation for the serving simulator.
///
/// Three load shapes, all seeded and deterministic, all emitted in the
/// exact CSV format (`arrival_s[,tenant]`) the replayer in arrivals.hpp
/// consumes — the interchange contract documented in
/// docs/serving-model.md:
///   * **diurnal** — a non-homogeneous Poisson process whose rate follows
///     a sinusoid, `base * (1 + amplitude * sin(2*pi*t / period))`: the
///     day/night swing of interactive traffic, compressed to simulation
///     time;
///   * **bursts** — a homogeneous Poisson floor with Poisson-seeded burst
///     episodes (exponential gaps and lengths) during which the rate
///     multiplies: flash crowds over steady background load;
///   * **mmpp** — a two-state Markov-modulated Poisson process
///     alternating exponential on/off sojourns at two rates: the
///     classical bursty-traffic model (starts in the on state).
///
/// Generation is by thinning against the profile's peak rate, so every
/// profile is an exact non-homogeneous Poisson sample. When tenant
/// labels are given, each event is assigned one uniformly at random
/// (seeded), so a multi-tenant mix replays with per-tenant streams.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/arrivals.hpp"
#include "util/names.hpp"

namespace optiplet::serve {

/// Which synthetic load shape to generate.
enum class TraceProfile { kDiurnal, kBursts, kMmpp };

inline constexpr util::NameRow<TraceProfile> kTraceProfileNames[] = {
    {TraceProfile::kDiurnal, "diurnal", {"diurnal", "sinusoid"}},
    {TraceProfile::kBursts, "bursts", {"bursts", "burst"}},
    {TraceProfile::kMmpp, "mmpp", {"mmpp", "onoff"}},
};
constexpr const auto& names(TraceProfile) { return kTraceProfileNames; }

[[nodiscard]] constexpr const char* to_string(TraceProfile p) {
  return util::name_of(p);
}

/// One fully-resolved trace-generation experiment. Fields defaulted to
/// <= 0 derive from `duration_s`/`base_rps` (see each comment), so the
/// common case only sets profile, rate, duration, and seed.
struct TraceGenSpec {
  TraceProfile profile = TraceProfile::kDiurnal;
  /// Mean (diurnal), floor (bursts), or reference (mmpp defaults) rate
  /// [requests/s]; must be positive.
  double base_rps = 1000.0;
  /// Trace length [s]; events land in [0, duration_s).
  double duration_s = 1.0;
  std::uint64_t seed = 42;
  /// Tenant labels assigned uniformly at random per event; empty emits
  /// unlabeled rows (which feed every tenant on replay).
  std::vector<std::string> tenants;

  // --- token geometry (autoregressive tenants) ---
  /// Mean prompt length [tokens]. Zero (the default) emits fixed-shape
  /// events and keeps the CSV schema byte-identical to the pre-token
  /// format (no token columns, no extra RNG draws).
  std::uint32_t prefill_tokens = 0;
  /// Mean generated-token count; requires prefill_tokens > 0 when set.
  std::uint32_t decode_tokens = 0;
  /// Relative half-width of the per-event uniform token draw in [0, 1):
  /// lengths land in mean*(1 ± spread). Zero emits the exact means.
  double token_spread = 0.0;

  // --- diurnal ---
  /// Sinusoid period [s]; <= 0 derives one full cycle over duration_s.
  double period_s = 0.0;
  /// Relative swing around base_rps, in [0, 1].
  double amplitude = 0.8;

  // --- bursts ---
  /// Rate multiplier inside a burst episode (>= 1).
  double burst_multiplier = 8.0;
  /// Mean gap between burst starts [s]; <= 0 derives duration_s / 10.
  double burst_gap_s = 0.0;
  /// Mean burst length [s]; <= 0 derives duration_s / 50.
  double burst_len_s = 0.0;

  // --- mmpp ---
  /// On-state rate [requests/s]; < 0 derives 2 * base_rps (exactly 0 is
  /// honored: arrivals only during off sojourns).
  double on_rps = -1.0;
  /// Off-state rate [requests/s]; < 0 derives base_rps / 10 (exactly 0 is
  /// honored: fully silent off periods).
  double off_rps = -1.0;
  /// Mean on / off sojourn [s]; <= 0 derives duration_s / 10 each.
  double on_s = 0.0;
  double off_s = 0.0;
};

/// Generate the trace: events sorted by arrival time, all in
/// [0, duration_s). Same spec -> identical events, bit-for-bit. Throws
/// std::invalid_argument on out-of-range knobs.
[[nodiscard]] std::vector<TraceEvent> generate_trace(
    const TraceGenSpec& spec);

/// Write `events` in the replayer's CSV format: header `arrival_s` plus a
/// `tenant` column when any event is labeled and a
/// `prefill_tokens`/`decode_tokens` pair when any event is
/// variable-length; times at 17 significant digits so
/// load_arrival_trace() round-trips them bit-exactly. Returns false when
/// the file cannot be opened.
[[nodiscard]] bool write_arrival_trace(const std::string& path,
                                       const std::vector<TraceEvent>& events);

}  // namespace optiplet::serve
