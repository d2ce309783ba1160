/// \file elastic_day_sweep.cpp
/// Elastic-operation characterization over a compressed diurnal day
/// (docs/elastic-operation.md): two LeNet5 tenants replay anti-phase
/// sinusoidal arrival traces — tenant A peaks while tenant B troughs, at
/// unequal base rates so the aggregate still swings day/night — against
/// four operating policies on the same pool:
///   * **static** — the fixed partition, day-curve metering only;
///   * **elastic** — EMA-driven re-partitioning follows the load shift,
///     each swap charged one serialized ReSiPI PCM-write window;
///   * **elastic_gated** — plus laser/gateway power-gating in measured
///     idle gaps, wake latency charged on the next batch;
///   * **faulted** — elastic_gated plus a dead chiplet mid-day and
///     capped-attempt client retry: the degraded-but-serving case.
///
/// The day curve buckets energy, completions, and grid-intensity-priced
/// carbon; off-peak vs peak energy-per-request comes from the lowest- and
/// highest-offered bucket terciles. The headline contract (CI-gated via
/// tools/check_bench_csv.py): elastic + gating spends measurably less
/// energy per request than the static partition at off-peak, while the
/// faulted day degrades goodput but never drops to zero availability.
///
/// Dumps elastic_day_sweep.csv next to the binary for plotting.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/system_config.hpp"
#include "power/energy_ledger.hpp"
#include "serve/elastic.hpp"
#include "serve/serving_simulator.hpp"
#include "serve/tracegen.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace {

using namespace optiplet;

constexpr const char* kMix = "LeNet5+LeNet5";
/// One compressed "day" of the sinusoid; two full days per run.
constexpr double kPeriodS = 0.2;
constexpr double kDurationS = 2.0 * kPeriodS;
constexpr double kBucketS = kPeriodS / 8.0;
/// Unequal anti-phase bases: the aggregate keeps a day/night swing while
/// the per-tenant share still sweeps wide enough to trip re-partitioning.
constexpr double kTenantABaseRps = 2500.0;
constexpr double kTenantBBaseRps = 1200.0;
constexpr double kAmplitude = 0.9;
constexpr double kFaultTimeS = kDurationS / 2.0;  // mid-day chiplet death

struct PolicyRow {
  std::string name;
  serve::ElasticSpec elastic;
};

/// Anti-phase diurnal arrivals: tenant B's sinusoid is tenant A's shifted
/// by half a period. The generator has no phase knob, so the shift is
/// applied to the event times modulo the duration (phase-shifting an
/// ergodic non-homogeneous Poisson sample), then re-sorted.
std::vector<double> diurnal_arrivals(double base_rps, std::uint64_t seed,
                                     bool anti_phase) {
  serve::TraceGenSpec spec;
  spec.profile = serve::TraceProfile::kDiurnal;
  spec.base_rps = base_rps;
  spec.duration_s = kDurationS;
  spec.period_s = kPeriodS;
  spec.amplitude = kAmplitude;
  spec.seed = seed;
  std::vector<double> times;
  for (const serve::TraceEvent& event : serve::generate_trace(spec)) {
    double t = event.arrival_s;
    if (anti_phase) {
      t += kPeriodS / 2.0;
      if (t >= kDurationS) {
        t -= kDurationS;
      }
    }
    times.push_back(t);
  }
  std::sort(times.begin(), times.end());
  return times;
}

double idle_energy_j(const serve::ServingReport& report) {
  return report.ledger.entry(power::Category::kServingIdle).dynamic_energy_j;
}

/// Energy per completed request over the tercile of day-curve buckets
/// with the lowest (`off_peak`) or highest offered load.
double tercile_epr_j(const serve::ServingReport& report, bool off_peak) {
  std::vector<serve::DayPoint> buckets = report.day_curve;
  std::sort(buckets.begin(), buckets.end(),
            [](const serve::DayPoint& a, const serve::DayPoint& b) {
              return a.offered < b.offered;
            });
  if (!off_peak) {
    std::reverse(buckets.begin(), buckets.end());
  }
  const std::size_t n = std::max<std::size_t>(buckets.size() / 3, 1);
  double energy = 0.0;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < n && i < buckets.size(); ++i) {
    energy += buckets[i].energy_j;
    completed += buckets[i].completed;
  }
  return completed > 0 ? energy / static_cast<double>(completed) : 0.0;
}

}  // namespace

int main() {
  const core::SystemConfig base = core::default_system_config();

  std::vector<PolicyRow> policies;
  {
    serve::ElasticSpec metered;  // day-curve metering only: still static
    metered.curve_bucket_s = kBucketS;
    metered.carbon_amplitude = 0.5;
    metered.carbon_period_s = kPeriodS;
    policies.push_back({"static", metered});

    serve::ElasticSpec elastic = metered;
    elastic.shift_threshold = 0.15;
    elastic.ema_tau_s = 0.02;
    elastic.cooldown_s = 0.05;
    policies.push_back({"elastic", elastic});

    serve::ElasticSpec gated = elastic;
    gated.gate = true;
    gated.gate_after_s = 1.0e-4;
    gated.wake_s = 1.0e-5;
    policies.push_back({"elastic_gated", gated});

    serve::ElasticSpec faulted = gated;
    faulted.retry_max_attempts = 2;
    faulted.retry_backoff_s = 1.0e-3;
    faulted.faults.push_back({kFaultTimeS, 2, 1.0, -1});
    policies.push_back({"faulted", faulted});
  }

  util::CsvWriter csv("elastic_day_sweep.csv",
                      {"policy", "offered", "completed", "abandoned",
                       "availability", "goodput_rps", "energy_per_request_j",
                       "offpeak_epr_j", "peak_epr_j", "idle_energy_j",
                       "gated_idle_s", "gate_events", "repartitions",
                       "retries", "faults_injected", "carbon_g"});
  OPTIPLET_REQUIRE(csv.ok(), "cannot open elastic_day_sweep.csv");

  util::TextTable table({"Policy", "Offered", "Done", "Avail", "E/req (mJ)",
                     "Off-peak (mJ)", "Peak (mJ)", "Gated (ms)", "Repart",
                     "Carbon (mg)"});
  for (const PolicyRow& policy : policies) {
    serve::ServingSpec spec;
    spec.tenant_mix = kMix;
    spec.arrival_rps = kTenantABaseRps + kTenantBBaseRps;  // replaced below
    spec.requests = 100;                                   // replaced below
    spec.policy = serve::BatchPolicy::kDeadline;
    spec.sla_s = 0.01;
    spec.elastic = policy.elastic;
    serve::ServingConfig config = serve::make_serving_config(
        base, accel::Architecture::kSiph2p5D, spec);
    OPTIPLET_REQUIRE(config.tenants.size() == 2,
                     "the day sweep co-locates exactly two tenants");
    config.tenants[0].replay_trace = true;
    config.tenants[0].trace_arrivals =
        diurnal_arrivals(kTenantABaseRps, 7, false);
    config.tenants[1].replay_trace = true;
    config.tenants[1].trace_arrivals =
        diurnal_arrivals(kTenantBBaseRps, 8, true);

    const serve::ServingReport report = serve::simulate(config);
    const serve::ServingMetrics& m = report.metrics;
    OPTIPLET_REQUIRE(!report.day_curve.empty(),
                     "day-curve metering produced no buckets");
    const double availability =
        m.offered > 0
            ? static_cast<double>(m.completed) / static_cast<double>(m.offered)
            : 0.0;
    const double off_peak = tercile_epr_j(report, true);
    const double peak = tercile_epr_j(report, false);

    csv.add_row({policy.name, std::to_string(m.offered),
                 std::to_string(m.completed), std::to_string(m.abandoned),
                 util::format_general(availability),
                 util::format_general(m.goodput_rps),
                 util::format_general(m.energy_per_request_j),
                 util::format_general(off_peak), util::format_general(peak),
                 util::format_general(idle_energy_j(report)),
                 util::format_general(m.gated_idle_s),
                 std::to_string(m.gate_events),
                 std::to_string(m.repartitions), std::to_string(m.retries),
                 std::to_string(m.faults_injected),
                 util::format_general(m.carbon_g)});
    table.add_row({policy.name, std::to_string(m.offered),
                   std::to_string(m.completed),
                   util::format_fixed(availability, 3),
                   util::format_fixed(m.energy_per_request_j * 1e3, 3),
                   util::format_fixed(off_peak * 1e3, 3),
                   util::format_fixed(peak * 1e3, 3),
                   util::format_fixed(m.gated_idle_s * 1e3, 2),
                   std::to_string(m.repartitions),
                   util::format_fixed(m.carbon_g * 1e3, 3)});
  }

  std::printf("Elastic day sweep: %s over %.1f compressed days "
              "(%.2f s simulated, %.0f/%.0f r/s anti-phase bases)\n\n",
              kMix, kDurationS / kPeriodS, kDurationS, kTenantABaseRps,
              kTenantBBaseRps);
  std::printf("%s", table.render().c_str());
  std::printf("\nDay sweep written to elastic_day_sweep.csv\n");
  return 0;
}
