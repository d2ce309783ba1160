#pragma once
/// \file modulation.hpp
/// Modulation formats for the photonic links (paper §II: MRs support OOK
/// and, with multiple same-wavelength MRs, PAM-4 multilevel signaling —
/// Thakkar et al. [44]).
///
/// PAM-4 doubles the bits per symbol on every wavelength but squeezes the
/// eye into three smaller openings: the receiver needs more optical power
/// (~4.8 dB for ideal equal spacing, ~6 dB with implementation penalty)
/// and the transmitter needs a second cascaded modulator ring per channel.

#include "util/names.hpp"
#include "util/units.hpp"

namespace optiplet::photonics {

enum class ModulationFormat {
  kOok,   ///< on-off keying: 1 bit/symbol
  kPam4,  ///< 4-level pulse-amplitude modulation: 2 bits/symbol
};

inline constexpr util::NameRow<ModulationFormat> kModulationFormatNames[] = {
    {ModulationFormat::kOok, "OOK", {"ook", "OOK"}},
    {ModulationFormat::kPam4, "PAM-4", {"pam4", "PAM-4", "PAM4"}},
};
constexpr const auto& names(ModulationFormat) {
  return kModulationFormatNames;
}

[[nodiscard]] constexpr const char* to_string(ModulationFormat f) {
  return util::name_of(f);
}

/// Bits carried per symbol.
[[nodiscard]] constexpr unsigned bits_per_symbol(ModulationFormat f) {
  return f == ModulationFormat::kPam4 ? 2 : 1;
}

/// Receiver power penalty over OOK at the same symbol rate [dB].
/// PAM-4's smallest eye is 1/3 of the OOK eye (4.77 dB) plus ~1.2 dB of
/// level-misalignment/linearity implementation penalty [44].
[[nodiscard]] constexpr double receiver_penalty_db(ModulationFormat f) {
  return f == ModulationFormat::kPam4 ? 4.77 + 1.2 : 0.0;
}

/// Modulator rings required per wavelength channel (PAM-4 cascades two
/// same-wavelength MRs for consecutive amplitude modulation, paper §II).
[[nodiscard]] constexpr unsigned modulator_rings_per_channel(
    ModulationFormat f) {
  return f == ModulationFormat::kPam4 ? 2 : 1;
}

/// Effective line rate per wavelength [bit/s] for a given symbol rate.
[[nodiscard]] constexpr double line_rate_bps(ModulationFormat f,
                                             double symbol_rate_baud) {
  return symbol_rate_baud * bits_per_symbol(f);
}

}  // namespace optiplet::photonics
