#pragma once
/// \file fidelity.hpp
/// Interconnect modeling fidelity: the mode enum, the FidelitySpec value
/// type carrying the sampling knobs, and their string encodings.
///
/// Three modes:
///   * kAnalytical — closed-form transaction-level interconnect models
///     (fast, contention-free).
///   * kCycleAccurate — every SiPh transfer drives noc::PhotonicCycleNet,
///     making reader-gateway contention and ReSiPI epoch transients
///     visible. The net steps only the cycles that can decide something
///     and jumps over the rest, so a cycle run costs about 1-2x an
///     analytical one (bench/sim_speed_sweep).
///   * kSampled — interval sampling in the Sniper/Virtuoso style: a
///     seeded, deterministic subset of layer windows runs cycle-accurate,
///     the rest fast-forward analytically with a calibrated cycle/
///     analytical correction factor applied at stitch time. The knobs
///     below (windows, layers per window, seed, confidence) parameterize
///     the sampling plan, which is why the bare enum grew into a spec.
///
/// Architectures without a cycle model (monolithic, electrical 2.5D)
/// always run the analytical path regardless of mode.
///
/// String encodings are canonical and round-trip through
/// fidelity_from_string: "analytical" and "cycle" spell exactly what the
/// bare enum used to (ScenarioSpec keys and CSV rows for those modes are
/// byte-identical to the pre-FidelitySpec schema), and kSampled spells
/// "sampled:windows=W,layers=L,seed=S,conf=C".

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/names.hpp"

namespace optiplet::core {

enum class Fidelity {
  kAnalytical,
  kCycleAccurate,
  kSampled,
};

/// The mode names at the front of a fidelity spelling; "tlm" and
/// "cycle-accurate" are legacy aliases.
inline constexpr util::NameRow<Fidelity> kFidelityNames[] = {
    {Fidelity::kAnalytical, "analytical", {"analytical", "tlm"}},
    {Fidelity::kCycleAccurate, "cycle", {"cycle", "cycle-accurate"}},
    {Fidelity::kSampled, "sampled", {"sampled"}},
};
constexpr const auto& names(Fidelity) { return kFidelityNames; }

[[nodiscard]] constexpr const char* to_string(Fidelity f) {
  return util::name_of(f);
}

/// Fidelity mode plus the sampling knobs kSampled needs. Implicitly
/// constructible from the bare enum so `config.fidelity = kCycleAccurate`
/// keeps working; the knobs only participate in identity (operator==,
/// to_string, ScenarioSpec keys) when mode == kSampled.
struct FidelitySpec {
  Fidelity mode = Fidelity::kAnalytical;

  /// Number of sampled layer windows per run. Zero degenerates to a pure
  /// analytical run (bit-for-bit); windows * window_layers covering every
  /// layer degenerates to a pure cycle-accurate run (bit-for-bit).
  unsigned windows = 8;
  /// Consecutive layers simulated cycle-accurate per window.
  unsigned window_layers = 1;
  /// Seed for the stratified window placement (util::Xoshiro256).
  std::uint64_t seed = 1;
  /// Two-sided confidence level for the correction-factor band reported
  /// in RunResult (e.g. 0.95 -> a normal-quantile 95% band).
  double confidence = 0.95;

  constexpr FidelitySpec() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): intentional migration path.
  constexpr FidelitySpec(Fidelity m) : mode(m) {}

  /// Equal specs name identical simulations: the sampling knobs are
  /// compared only under kSampled, matching the to_string encoding.
  [[nodiscard]] friend constexpr bool operator==(const FidelitySpec& a,
                                                 const FidelitySpec& b) {
    if (a.mode != b.mode) {
      return false;
    }
    if (a.mode != Fidelity::kSampled) {
      return true;
    }
    return a.windows == b.windows && a.window_layers == b.window_layers &&
           a.seed == b.seed && a.confidence == b.confidence;
  }
};

/// Canonical spelling: "analytical" / "cycle" for the pure modes (exactly
/// the bare-enum encoding), "sampled:windows=W,layers=L,seed=S,conf=C"
/// for kSampled.
[[nodiscard]] std::string to_string(const FidelitySpec& spec);

/// Parse a fidelity spelling: a mode spelling of kFidelityNames, where
/// "sampled[:knob=value,...]" takes knobs windows/w, layers/l, seed/s,
/// conf/confidence (unset knobs keep their defaults). nullopt on unknown
/// names, unknown knobs, or out-of-range values.
[[nodiscard]] std::optional<FidelitySpec> fidelity_from_string(
    std::string_view name);

/// Split a comma-separated fidelity list, folding `knob=value` tokens back
/// onto a preceding "sampled" entry — commas separate both list elements
/// and sampling knobs, so "analytical,sampled:windows=4,seed=7,cycle"
/// splits into {"analytical", "sampled:windows=4,seed=7", "cycle"}.
[[nodiscard]] std::vector<std::string> split_fidelity_list(
    std::string_view text);

/// The deterministic sampling plan: which of `layer_count` layers run
/// cycle-accurate under `spec`. Window starts are stratified (one window
/// per equal stratum of the layer range) and placed by a Xoshiro256 draw
/// seeded from (spec.seed, salt, layer_count), so the same spec on the
/// same workload always samples the same layers regardless of thread
/// count or evaluation order. Non-sampled modes return an all-false mask.
[[nodiscard]] std::vector<bool> sampled_layer_mask(std::size_t layer_count,
                                                   const FidelitySpec& spec,
                                                   std::uint64_t salt);

}  // namespace optiplet::core
