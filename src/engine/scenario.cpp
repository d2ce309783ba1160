#include "engine/scenario.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "dnn/zoo.hpp"
#include "noc/photonic_interposer.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace optiplet::engine {
namespace {

struct OverrideEntry {
  const char* name;
  void (*set)(core::SystemConfig&, double);
};

/// Registry of sweepable SystemConfig fields, sorted by name. Values are
/// doubles; integral fields round via static_cast after a range check is
/// left to OPTIPLET_REQUIRE in the consumers.
constexpr std::array<OverrideEntry, 12> kOverrides{{
    {"idle_power_fraction",
     [](core::SystemConfig& c, double v) { c.idle_power_fraction = v; }},
    {"layer_overhead_2p5d_s",
     [](core::SystemConfig& c, double v) { c.layer_overhead_2p5d_s = v; }},
    {"layer_overhead_monolithic_s",
     [](core::SystemConfig& c, double v) {
       c.layer_overhead_monolithic_s = v;
     }},
    {"monolithic_memory_bandwidth_bps",
     [](core::SystemConfig& c, double v) {
       c.monolithic_memory_bandwidth_bps = v;
     }},
    {"monolithic_onchip_buffer_bits",
     [](core::SystemConfig& c, double v) {
       c.monolithic_onchip_buffer_bits = static_cast<std::uint64_t>(v);
     }},
    {"parameter_bits",
     [](core::SystemConfig& c, double v) {
       c.parameter_bits = static_cast<unsigned>(v);
     }},
    {"photonic.data_rate_per_wavelength_bps",
     [](core::SystemConfig& c, double v) {
       c.photonic.data_rate_per_wavelength_bps = v;
     }},
    {"photonic.gateway_clock_hz",
     [](core::SystemConfig& c, double v) {
       c.photonic.gateway_clock_hz = v;
     }},
    {"photonic.interposer_span_m",
     [](core::SystemConfig& c, double v) {
       c.photonic.interposer_span_m = v;
     }},
    {"resipi.epoch_s",
     [](core::SystemConfig& c, double v) { c.resipi.epoch_s = v; }},
    {"resipi.min_active_gateways",
     [](core::SystemConfig& c, double v) {
       c.resipi.min_active_gateways = static_cast<std::size_t>(v);
     }},
    {"resipi.target_utilization",
     [](core::SystemConfig& c, double v) {
       c.resipi.target_utilization = v;
     }},
}};

}  // namespace

bool apply_override(core::SystemConfig& config, const std::string& name,
                    double value) {
  for (const auto& entry : kOverrides) {
    if (name == entry.name) {
      entry.set(config, value);
      return true;
    }
  }
  return false;
}

std::vector<std::string> override_keys() {
  std::vector<std::string> keys;
  keys.reserve(kOverrides.size());
  for (const auto& entry : kOverrides) {
    keys.emplace_back(entry.name);
  }
  return keys;
}

void ScenarioSpec::apply(core::SystemConfig& config) const {
  config.photonic.total_wavelengths = wavelengths;
  config.photonic.gateways_per_chiplet = gateways_per_chiplet;
  config.photonic.modulation = modulation;
  config.fidelity = fidelity;
  config.batch_size = batch_size;
  for (const auto& [name, value] : overrides) {
    OPTIPLET_REQUIRE(apply_override(config, name, value),
                     "unknown SystemConfig override key: " + name);
  }
}

std::string ScenarioSpec::key() const {
  // Collapse duplicate override keys to the last occurrence first — the
  // effective value under apply()'s last-write-wins — then sort, so the
  // key never conflates specs whose application order differs.
  std::vector<std::pair<std::string, double>> sorted;
  for (const auto& entry : overrides) {
    const auto it =
        std::find_if(sorted.begin(), sorted.end(), [&entry](const auto& e) {
          return e.first == entry.first;
        });
    if (it != sorted.end()) {
      it->second = entry.second;
    } else {
      sorted.push_back(entry);
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream os;
  os << "model=" << model << ";arch=" << accel::to_string(arch)
     << ";batch=" << batch_size << ";wl=" << wavelengths
     << ";gw=" << gateways_per_chiplet
     << ";mod=" << photonics::to_string(modulation)
     << ";fid=" << core::to_string(fidelity);
  for (const auto& [name, value] : sorted) {
    // 17 significant digits round-trip the double, keeping the key exact.
    os << ';' << name << '=' << util::format_general(value, 17);
  }
  if (serving) {
    os << ";serve.policy=" << serve::to_string(serving->policy)
       << ";serve.pipe=" << serve::to_string(serving->pipeline)
       << ";serve.batch=" << serving->max_batch
       << ";serve.wait=" << util::format_general(serving->max_wait_s, 17)
       << ";serve.mix=" << serving->tenant_mix
       << ";serve.sla=" << util::format_general(serving->sla_s, 17)
       << ";serve.adm=" << serve::to_string(serving->admission);
    if (serving->elastic.enabled()) {
      // Inert elastic policies add nothing: pre-elastic keys stay
      // byte-identical so existing memo caches and goldens survive.
      os << ";serve.elastic=" << serve::to_string(serving->elastic);
    }
    if (!serving->priority_mix.empty()) {
      // Empty means "all class 0"; an explicit mix is part of the
      // experiment identity (priority orders shared-resource grants).
      os << ";serve.prio=" << serving->priority_mix;
    }
    if (serving->prefill_tokens > 0) {
      // Token geometry only exists for variable-length (transformer)
      // scenarios; fixed-shape keys stay byte-identical to the pre-token
      // schema so existing memo caches and goldens survive.
      os << ";serve.prefill=" << serving->prefill_tokens
         << ";serve.decode=" << serving->decode_tokens
         << ";serve.spread="
         << util::format_general(serving->token_spread, 17)
         << ";serve.kv_mb="
         << util::format_general(serving->kv_cache_mb, 17);
    }
    if (!serving->trace_path.empty()) {
      // A replayed trace fully determines the arrivals: rate, request
      // count, and seed are ignored, so they must not split the memo
      // key. The source is NOT ignored — trace + closed loop is
      // *rejected* at evaluation — so it stays in the key lest an
      // invalid spec ride a valid spec's cached result (or vice versa,
      // order-dependently).
      os << ";serve.trace=" << serving->trace_path;
      if (serving->source != serve::ArrivalSource::kOpenLoop) {
        os << ";serve.src=" << serve::to_string(serving->source);
      }
    } else if (serving->source == serve::ArrivalSource::kClosedLoop) {
      // Closed loop ignores the offered rate: load is users/think-time.
      os << ";serve.src=closed;serve.users=" << serving->users
         << ";serve.think=" << util::format_general(serving->think_s, 17)
         << ";serve.n=" << serving->requests
         << ";serve.seed=" << serving->seed;
    } else {
      os << ";serve.rate=" << util::format_general(serving->arrival_rps, 17)
         << ";serve.n=" << serving->requests
         << ";serve.seed=" << serving->seed;
    }
  }
  if (cluster) {
    os << ";cluster.pkgs=" << cluster->packages
       << ";cluster.bal=" << cluster::to_string(cluster->balancer)
       << ";cluster.rep=" << cluster->replication
       << ";cluster.len=" << util::format_general(cluster->link_length_m, 17)
       << ";cluster.linkwl=" << cluster->link_wavelengths;
    if (!cluster->replication_mix.empty()) {
      // An explicit per-tenant mix overrides the scalar factor, so it is
      // part of the experiment identity.
      os << ";cluster.repmix=" << cluster->replication_mix;
    }
  }
  return os.str();
}

std::uint64_t ScenarioSpec::hash() const {
  // FNV-1a, 64-bit.
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : key()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

bool feasible(const ScenarioSpec& spec, const core::SystemConfig& base) {
  if (spec.gateways_per_chiplet == 0 ||
      spec.wavelengths % spec.gateways_per_chiplet != 0) {
    return false;
  }
  if (spec.arch != accel::Architecture::kSiph2p5D) {
    return true;  // the photonic link budget only gates the SiPh platform
  }
  core::SystemConfig cfg = base;
  spec.apply(cfg);
  const noc::PhotonicInterposer probe(cfg.photonic, cfg.tech.photonic);
  return probe.link_budget_feasible();
}

namespace {

/// The spec block a sweep axis fills. A non-empty serving axis switches
/// the grid to serving mode, a non-empty cluster axis to cluster mode
/// (which implies serving mode); shape axes fill the first-class fields.
enum class Block { kShape, kServing, kCluster };

/// One sweep axis: the block it fills, its value count in a grid, and how
/// the grid's i-th value imprints a spec. Imprinting only assigns, so a
/// spec can move from one combination to the next axis by axis.
struct Axis {
  Block block;
  std::function<std::size_t(const ScenarioGrid&)> size;
  std::function<void(const ScenarioGrid&, std::size_t, ScenarioSpec&)>
      imprint;
};

/// An axis over the grid vector `values`; `set` imprints one value.
template <typename T>
Axis axis(Block block, std::vector<T> ScenarioGrid::*values,
          void (*set)(ScenarioSpec&, const std::type_identity_t<T>&)) {
  return {block,
          [values](const ScenarioGrid& grid) { return (grid.*values).size(); },
          [values, set](const ScenarioGrid& grid, std::size_t i,
                        ScenarioSpec& spec) { set(spec, (grid.*values)[i]); }};
}

/// Every grid axis but the override axes and the architecture and model
/// loops, outermost first: the nesting order scenario.hpp documents. An
/// empty axis contributes no row, so the spec keeps the base
/// configuration's value or the one in serving_defaults/cluster_defaults.
const std::vector<Axis>& axis_table() {
  static const std::vector<Axis> table = {
      axis(Block::kShape, &ScenarioGrid::fidelities,
           [](ScenarioSpec& s, const auto& v) { s.fidelity = v; }),
      axis(Block::kShape, &ScenarioGrid::wavelengths,
           [](ScenarioSpec& s, const auto& v) { s.wavelengths = v; }),
      axis(Block::kShape, &ScenarioGrid::gateways_per_chiplet,
           [](ScenarioSpec& s, const auto& v) { s.gateways_per_chiplet = v; }),
      axis(Block::kShape, &ScenarioGrid::modulations,
           [](ScenarioSpec& s, const auto& v) { s.modulation = v; }),
      axis(Block::kShape, &ScenarioGrid::batch_sizes,
           [](ScenarioSpec& s, const auto& v) { s.batch_size = v; }),
      axis(Block::kServing, &ScenarioGrid::arrival_rates_rps,
           [](ScenarioSpec& s, const auto& v) { s.serving->arrival_rps = v; }),
      axis(Block::kServing, &ScenarioGrid::batch_policies,
           [](ScenarioSpec& s, const auto& v) { s.serving->policy = v; }),
      axis(Block::kServing, &ScenarioGrid::pipeline_modes,
           [](ScenarioSpec& s, const auto& v) { s.serving->pipeline = v; }),
      axis(Block::kServing, &ScenarioGrid::arrival_sources,
           [](ScenarioSpec& s, const auto& v) { s.serving->source = v; }),
      axis(Block::kServing, &ScenarioGrid::user_counts,
           [](ScenarioSpec& s, const auto& v) { s.serving->users = v; }),
      axis(Block::kServing, &ScenarioGrid::admission_policies,
           [](ScenarioSpec& s, const auto& v) { s.serving->admission = v; }),
      axis(Block::kServing, &ScenarioGrid::prefill_token_counts,
           [](ScenarioSpec& s, const auto& v) {
             s.serving->prefill_tokens = v;
           }),
      axis(Block::kServing, &ScenarioGrid::decode_token_counts,
           [](ScenarioSpec& s, const auto& v) {
             s.serving->decode_tokens = v;
           }),
      axis(Block::kServing, &ScenarioGrid::elastic_policies,
           [](ScenarioSpec& s, const std::string& policy) {
             const std::optional<serve::ElasticSpec> parsed =
                 serve::elastic_from_string(policy);
             if (!parsed) {
               throw std::invalid_argument("unparseable elastic policy: " +
                                           policy);
             }
             s.serving->elastic = *parsed;
           }),
      axis(Block::kCluster, &ScenarioGrid::package_counts,
           [](ScenarioSpec& s, const auto& v) { s.cluster->packages = v; }),
      axis(Block::kCluster, &ScenarioGrid::balancer_policies,
           [](ScenarioSpec& s, const auto& v) { s.cluster->balancer = v; }),
      axis(Block::kCluster, &ScenarioGrid::replication_factors,
           [](ScenarioSpec& s, const auto& v) { s.cluster->replication = v; }),
  };
  return table;
}

/// The j-th override axis as a row: it fills the j-th override slot.
Axis override_axis(std::size_t j) {
  return {Block::kShape,
          [j](const ScenarioGrid& grid) {
            return grid.override_axes[j].second.size();
          },
          [j](const ScenarioGrid& grid, std::size_t i, ScenarioSpec& spec) {
            const auto& [name, values] = grid.override_axes[j];
            spec.overrides[j] = {name, values[i]};
          }};
}

bool fills(const ScenarioGrid& grid, Block block) {
  const std::vector<Axis>& table = axis_table();
  return std::any_of(table.begin(), table.end(), [&](const Axis& a) {
    return a.block == block && a.size(grid) > 0;
  });
}

}  // namespace

bool ScenarioGrid::cluster_mode() const {
  return fills(*this, Block::kCluster);
}

bool ScenarioGrid::serving_mode() const {
  return cluster_mode() || !tenant_mixes.empty() ||
         fills(*this, Block::kServing);
}

std::size_t ScenarioGrid::raw_size() const {
  const auto at_least_one = [](std::size_t n) {
    return std::max<std::size_t>(n, 1);
  };
  std::size_t size =
      models.empty() ? dnn::zoo::model_names().size() : models.size();
  if (serving_mode()) {
    // `models` is replaced by the tenant-mix axis in serving mode.
    size = at_least_one(tenant_mixes.size());
  }
  size *= at_least_one(architectures.size());
  for (const Axis& a : axis_table()) {
    size *= at_least_one(a.size(*this));
  }
  for (const auto& [name, values] : override_axes) {
    (void)name;
    size *= at_least_one(values.size());
  }
  return size;
}

std::vector<ScenarioSpec> ScenarioGrid::expand(
    const core::SystemConfig& base) const {
  const bool serving = serving_mode();
  // In serving mode the "model" axis enumerates tenant mixes; every mix
  // component must still resolve in the zoo.
  const std::vector<std::string> model_axis =
      serving ? (tenant_mixes.empty()
                     ? std::vector<std::string>{serving_defaults.tenant_mix}
                     : tenant_mixes)
              : (models.empty() ? dnn::zoo::model_names() : models);
  for (const auto& name : model_axis) {
    for (const auto& component :
         serving ? serve::split_mix(name) : std::vector<std::string>{name}) {
      (void)dnn::zoo::by_name(component);  // fail fast on unknown models
    }
  }
  const std::vector<accel::Architecture> arch_axis =
      architectures.empty()
          ? std::vector<accel::Architecture>{accel::Architecture::kSiph2p5D}
          : architectures;

  // The first combination starts from the base configuration's shape and
  // the defaults of the blocks this grid fills.
  ScenarioSpec current;
  current.fidelity = base.fidelity;
  current.wavelengths = base.photonic.total_wavelengths;
  current.gateways_per_chiplet = base.photonic.gateways_per_chiplet;
  current.modulation = base.photonic.modulation;
  current.batch_size = base.batch_size;
  if (serving) {
    current.serving = serving_defaults;
  }
  if (cluster_mode()) {
    current.cluster = cluster_defaults;
  }
  std::vector<Axis> rows;
  for (const Axis& a : axis_table()) {
    if (a.size(*this) == 0) {
      continue;
    }
    // Imprint every value, the first one last: a value that cannot
    // imprint (an unparseable elastic policy) fails the whole expansion
    // rather than the Nth spec, and `current` ends on the first value.
    for (std::size_t i = a.size(*this); i-- > 0;) {
      a.imprint(*this, i, current);
    }
    rows.push_back(a);
  }
  const auto keys = override_keys();
  for (std::size_t i = 0; i < override_axes.size(); ++i) {
    const auto& [name, values] = override_axes[i];
    OPTIPLET_REQUIRE(
        std::find(keys.begin(), keys.end(), name) != keys.end(),
        "unknown SystemConfig override key: " + name);
    OPTIPLET_REQUIRE(!values.empty(),
                     "empty override axis for key: " + name);
    for (std::size_t j = 0; j < i; ++j) {
      OPTIPLET_REQUIRE(override_axes[j].first != name,
                       "duplicate override axis for key: " + name);
    }
    current.overrides.emplace_back(name, values.front());
    rows.push_back(override_axis(i));
  }

  std::vector<ScenarioSpec> specs;
  std::vector<std::size_t> digits(rows.size(), 0);
  for (;;) {
    // Feasibility depends only on the interposer shape (plus, for SiPh,
    // the applied overrides) — never on the model — so probe once per
    // shape, not once per (architecture, model).
    const bool divisible =
        current.gateways_per_chiplet != 0 &&
        current.wavelengths % current.gateways_per_chiplet == 0;
    bool siph_feasible = false;
    bool siph_probed = false;
    for (const auto arch : arch_axis) {
      bool shape_ok = divisible;
      if (shape_ok && arch == accel::Architecture::kSiph2p5D) {
        if (!siph_probed) {
          ScenarioSpec shape = current;
          shape.arch = accel::Architecture::kSiph2p5D;
          siph_feasible = feasible(shape, base);
          siph_probed = true;
        }
        shape_ok = siph_feasible;
      }
      if (!shape_ok) {
        continue;
      }
      for (const auto& model : model_axis) {
        ScenarioSpec spec = current;
        spec.model = model;
        spec.arch = arch;
        if (spec.serving) {
          spec.serving->tenant_mix = model;
        }
        specs.push_back(std::move(spec));
      }
    }
    // Turn the odometer: the innermost row that can advance does, and
    // every row inside it wraps back to its first value.
    std::size_t r = rows.size();
    for (; r > 0; --r) {
      std::size_t& digit = digits[r - 1];
      digit = (digit + 1) % rows[r - 1].size(*this);
      rows[r - 1].imprint(*this, digit, current);
      if (digit != 0) {
        break;
      }
    }
    if (r == 0) {
      return specs;
    }
  }
}

}  // namespace optiplet::engine
