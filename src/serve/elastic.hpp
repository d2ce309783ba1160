#pragma once
/// \file elastic.hpp
/// Runtime-elasticity policy knobs for the serving simulator.
///
/// `ElasticSpec` bundles the four elastic-operation mechanisms added on top
/// of the static co-location plan (see docs/elastic-operation.md):
///
///  1. **Re-partitioning** — when the per-tenant EMA load signal drifts far
///     enough from the current chiplet allocation, the pool is re-partitioned
///     and every affected gateway pays a ReSiPI PCM-write retune through the
///     same serialized interposer window batches use.
///  2. **Idle power-gating** — owned lasers/gateways go dark in measured
///     idle gaps longer than `gate_after_s`; the gated seconds are removed
///     from the `EnergyLedger` idle burn and the next batch pays `wake_s`.
///  3. **Fault injection** — `FaultSpec` kills a chiplet or derates link
///     bandwidth at a wall-clock time, shrinking the live partition pool
///     mid-run and forcing a re-partition around the dead hardware.
///  4. **Client retry** — requests shed under `kSlaShed` admission are
///     re-offered with seeded exponential backoff, up to a capped number of
///     attempts, after which they count as `abandoned`.
///
/// The default-constructed spec is *provably inert*: an infinite shift
/// threshold never triggers a re-partition, gating is off, the retry budget
/// is zero, and no fault is armed — the simulator takes the exact static
/// code path, bit for bit (degeneracy-tested).

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace optiplet::serve {

/// One injected hardware fault. A fault is *armed* only when `time_s` is
/// finite; `time_s = inf` (the default) schedules nothing and is
/// bit-identical to no fault at all.
struct FaultSpec {
  /// Absolute simulation time the fault strikes [s]. Infinite = never.
  double time_s = std::numeric_limits<double>::infinity();
  /// Pool-global chiplet id that dies (-1 = no dead chiplet). The chiplet is
  /// removed from the live partition pool and a re-partition is forced.
  int chiplet = -1;
  /// Drifted-microring bandwidth derate in (0, 1]; service latency is
  /// multiplied by 1/derate from the fault time on. 1.0 = no drift.
  double bandwidth_derate = 1.0;
  /// Cluster scope: package index the fault applies to, or -1 for every
  /// package. Ignored by single-package `serve::simulate`.
  int package = -1;

  /// True when the fault will actually fire (finite time and some effect).
  [[nodiscard]] bool armed() const {
    return std::isfinite(time_s) && (chiplet >= 0 || bandwidth_derate < 1.0);
  }

  bool operator==(const FaultSpec&) const = default;
};

/// Elastic-operation policy. All features default off (see file comment).
struct ElasticSpec {
  // --- Re-partitioning ------------------------------------------------
  /// Trigger threshold on the max per-tenant |demand share - allocation
  /// share| drift, in absolute share units [0, 1]. Infinite = static.
  double shift_threshold = std::numeric_limits<double>::infinity();
  /// Time constant of the per-tenant interarrival EMA load signal [s].
  double ema_tau_s = 10.0;
  /// Minimum time between policy-triggered re-partitions [s]; also acts as
  /// the warm-up before the first one. Faults ignore the cooldown.
  double cooldown_s = 60.0;

  // --- Idle power-gating ----------------------------------------------
  /// Gate owned lasers/gateways in idle gaps (off by default).
  bool gate = false;
  /// Idle time before the gate closes [s]; the gap below this threshold
  /// still burns normal idle power.
  double gate_after_s = 1.0e-3;
  /// Wake latency charged to the first batch after a gated gap [s].
  double wake_s = 100.0e-6;

  // --- Client retry ---------------------------------------------------
  /// Max re-offers for a shed request (0 = shed immediately, no retry).
  unsigned retry_max_attempts = 0;
  /// Base backoff [s]; attempt k waits retry_backoff_s * 2^k * U[1,2).
  double retry_backoff_s = 1.0e-3;

  // --- Day curves / carbon proxy --------------------------------------
  /// Bucket width for the energy-per-request day curve [s]; 0 = no curve.
  double curve_bucket_s = 0.0;
  /// Mean grid carbon intensity [gCO2 / kWh] for the carbon proxy.
  double carbon_base_gpkwh = 400.0;
  /// Sinusoidal swing of the grid intensity (0 = flat).
  double carbon_amplitude = 0.0;
  /// Period of the grid-intensity sinusoid [s] (one day).
  double carbon_period_s = 86400.0;

  // --- Faults ---------------------------------------------------------
  std::vector<FaultSpec> faults;

  /// True when the EMA policy can trigger re-partitions.
  [[nodiscard]] bool repartitioning() const {
    return std::isfinite(shift_threshold);
  }
  /// True when shed requests are re-offered instead of dropped.
  [[nodiscard]] bool retrying() const { return retry_max_attempts > 0; }
  /// True when any elastic mechanism differs from the inert default.
  [[nodiscard]] bool enabled() const;

  bool operator==(const ElasticSpec&) const = default;
};

/// True when every field is in the range serve::simulate accepts:
/// non-negative durations and fault times, a positive EMA time constant
/// and carbon period, an amplitude in [0, 1], a derate in (0, 1], and
/// chiplet and package ids of at least -1. The codec refuses text outside
/// it; simulate() refuses such a spec naming its `to_string` form.
[[nodiscard]] bool in_range(const ElasticSpec& spec);

/// Canonical text form, round-trippable through `elastic_from_string` and
/// stable enough for `ScenarioSpec::key()`. The inert default encodes as
/// "static"; otherwise '/'-separated `k=v` fields, e.g.
/// `shift=0.2/tau=60/cool=600/gate=0.001:0.0001/retry=4:0.002/bucket=3600/`
/// `carbon=400:0.5:86400/fault=3600:2:1:-1`.
[[nodiscard]] std::string to_string(const ElasticSpec& spec);

/// One fault's field of the `to_string` form, e.g. `fault=3600:2:1:-1`.
[[nodiscard]] std::string to_string(const FaultSpec& fault);

/// Parse the `to_string` form (also accepts "static" / "" for the default).
/// Returns nullopt on malformed input, and on a value outside the range
/// serve::simulate accepts (a negative duration, say).
[[nodiscard]] std::optional<ElasticSpec> elastic_from_string(
    std::string_view text);

}  // namespace optiplet::serve
