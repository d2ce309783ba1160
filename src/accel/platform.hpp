#pragma once
/// \file platform.hpp
/// Accelerator platform assembly: the Table-1 chiplet mix for the 2.5D
/// variants and the monolithic CrossLight configuration.
///
/// 2.5D platform (Table 1): 1 memory chiplet (HBM) + 8 compute chiplets:
///   2 chiplets x 4   100-unit dense MACs (1 MAC/gateway  -> 4 gateways)
///   1 chiplet  x 8   7x7 conv MACs       (2 MACs/gateway -> 4 gateways)
///   2 chiplets x 16  5x5 conv MACs       (4 MACs/gateway -> 4 gateways)
///   3 chiplets x 44  3x3 conv MACs       (11 MACs/gateway-> 4 gateways)
///
/// Monolithic CrossLight: one die carrying a quarter of the 2.5D unit
/// counts (reticle/yield-limited), with twice the units per bus (fewer
/// memory ports feed the die) and longer on-die waveguide paths — the
/// geometry that makes monolithic laser power scale poorly (§V).

#include <cstdint>
#include <vector>

#include "accel/chiplet.hpp"
#include "power/tech_params.hpp"
#include "util/names.hpp"

namespace optiplet::accel {

/// The three evaluated architectures (§VI).
enum class Architecture {
  kMonolithicCrossLight,
  kElec2p5D,
  kSiph2p5D,
};

/// The names are the paper's platform labels; the CLIs take the short
/// spellings.
inline constexpr util::NameRow<Architecture> kArchitectureNames[] = {
    {Architecture::kMonolithicCrossLight,
     "CrossLight",
     {"mono", "crosslight", "CrossLight"}},
    {Architecture::kElec2p5D,
     "2.5D-CrossLight-Elec",
     {"elec", "2.5D-CrossLight-Elec"}},
    {Architecture::kSiph2p5D,
     "2.5D-CrossLight-SiPh",
     {"siph", "2.5D-CrossLight-SiPh"}},
};
constexpr const auto& names(Architecture) { return kArchitectureNames; }

[[nodiscard]] constexpr const char* to_string(Architecture a) {
  return util::name_of(a);
}

/// One homogeneous group of identical chiplets.
struct ChipletGroup {
  ChipletDesign chiplet{};
  std::size_t chiplet_count = 1;
};

/// Platform structural description.
struct PlatformSpec {
  std::vector<ChipletGroup> groups;
  /// Bandwidth between the memory system and the (single) on-die network
  /// port for the monolithic case [bit/s]; 2.5D variants use the interposer
  /// models instead.
  double monolithic_memory_bandwidth_bps = 512.0 * units::Gbps;
};

/// Table-1 compute complement (8 chiplets).
[[nodiscard]] PlatformSpec make_table1_spec();

/// Monolithic CrossLight: Table-1 unit counts scaled by 1/`scale_divisor`
/// on one die with monolithic bus geometry.
[[nodiscard]] PlatformSpec make_monolithic_spec(unsigned scale_divisor = 4);

/// An assembled platform: chiplet models per group with lookup by MAC kind.
class Platform {
 public:
  Platform(const PlatformSpec& spec, const power::TechParams& tech);

  struct Group {
    ComputeChiplet chiplet;
    std::size_t chiplet_count;
  };

  [[nodiscard]] const std::vector<Group>& groups() const { return groups_; }

  /// Group serving `kind`; every platform must provision all four kinds.
  [[nodiscard]] const Group& group_for(MacKind kind) const;

  /// Aggregate sustained throughput of the group serving `kind` [MAC/s].
  [[nodiscard]] double group_macs_per_s(MacKind kind) const;

  /// Total MAC units across the platform.
  [[nodiscard]] std::uint64_t total_units() const;

  /// Total compute chiplets (monolithic: 1 logical die counted per group).
  [[nodiscard]] std::size_t total_chiplets() const;

  /// Sum of active power across all chiplets (everything lit) [W].
  [[nodiscard]] double peak_compute_power_w() const;

  [[nodiscard]] const PlatformSpec& spec() const { return spec_; }

 private:
  PlatformSpec spec_;
  std::vector<Group> groups_;
};

}  // namespace optiplet::accel
