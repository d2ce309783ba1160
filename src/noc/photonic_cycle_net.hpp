#pragma once
/// \file photonic_cycle_net.hpp
/// Cycle-accurate photonic interposer network (paper §V, Fig. 6), stepped
/// one gateway clock cycle at a time — the high-fidelity counterpart of
/// the closed-form PhotonicInterposer transaction model.
///
/// What the analytical model cannot see, this one simulates per gateway
/// clock cycle:
///   * **SWMR broadcast arbitration** — the memory writer serializes read
///     transfers onto the shared WDM medium; each transfer is granted a
///     wavelength slice bounded by the destination reader's active filter
///     rows (active_gateways * wavelengths_per_gateway) and by the channels
///     still free on the bus, so contention at reader gateways queues
///     transfers instead of averaging them away;
///   * **SWSR return channels** — one dedicated waveguide per compute
///     chiplet back to the memory chiplet, serialized at the chiplet's
///     currently active gateway bandwidth;
///   * **serialization** at the configured symbol rate and modulation
///     (line_rate / gateway_clock bits per channel per cycle), plus
///     store-and-forward buffering and photon time of flight;
///   * **ReSiPI epochs in-cycle** — the embedded ResipiController observes
///     real injected demand at epoch boundaries; gateway activation changes
///     take effect at the epoch commit and stall the affected chiplet's
///     gateways for the PCM write latency (the reconfiguration transient).
///
/// Each cycle runs in two phases: every evaluate reads the state the last
/// cycle committed and stages its changes, then every commit applies them,
/// so the broadcast, return and epoch logic never see each other's
/// same-cycle writes. Determinism: no randomness and fixed iteration
/// orders — results are bit-identical across runs and SweepRunner thread
/// counts. run_until_drained() and advance_idle() skip the cycles between
/// decisions in one jump and stay bit-identical to per-cycle step().

#include <cstdint>
#include <vector>

#include "noc/photonic_interposer.hpp"
#include "noc/resipi_controller.hpp"
#include "power/tech_params.hpp"
#include "sim/stats.hpp"

namespace optiplet::noc {

struct PhotonicCycleNetConfig {
  PhotonicInterposerConfig interposer{};
  ResipiConfig resipi{};
  /// Chiplets managed as read/write endpoints (defaults to
  /// interposer.compute_chiplets when 0).
  std::size_t chiplet_count = 0;
  /// When false, every gateway is pinned active and no epochs run — the
  /// pure-medium characterization mode used by the traffic bench.
  bool resipi_enabled = true;
  /// Observability sink, forwarded to the embedded ResipiController
  /// (`noc.resipi.*` series) and used for per-epoch trace spans on an
  /// "epoch" track plus a metrics snapshot at every epoch boundary. Null
  /// disables observability. Not owned; must outlive the net.
  obs::Recorder* recorder = nullptr;
};

/// One retired transfer, for per-layer latency accounting.
struct CompletedTransfer {
  std::uint64_t id = 0;
  bool is_write = false;
  std::uint64_t inject_cycle = 0;
  std::uint64_t done_cycle = 0;  ///< delivery incl. time of flight
};

/// Aggregate statistics over the run so far.
struct PhotonicCycleNetStats {
  sim::RunningStat read_latency_cycles;
  sim::RunningStat write_latency_cycles;
  std::uint64_t read_bits_delivered = 0;
  std::uint64_t write_bits_delivered = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t writes_completed = 0;
  std::uint64_t epochs = 0;
  /// Cycles during which at least one chiplet was stalled on a PCM write.
  std::uint64_t stall_cycles = 0;
};

/// The cycle-accurate photonic interposer.
class PhotonicCycleNet {
 public:
  PhotonicCycleNet(const PhotonicCycleNetConfig& config,
                   const power::PhotonicTech& tech);

  // ---- traffic ----

  /// Queue a memory->chiplet read transfer; returns its id.
  std::uint64_t inject_read(std::size_t chiplet, std::uint64_t bits);

  /// Queue one broadcast read transfer delivered to every chiplet in
  /// `targets` simultaneously (the SWMR input broadcast); returns its id.
  std::uint64_t inject_broadcast(const std::vector<std::size_t>& targets,
                                 std::uint64_t bits);

  /// Queue a chiplet->memory write transfer; returns its id.
  std::uint64_t inject_write(std::size_t chiplet, std::uint64_t bits);

  // ---- simulation ----

  /// Advance one gateway clock cycle (both phases). Always exactly one
  /// cycle: the reference run_until_drained() and advance_idle() are
  /// tested against.
  void step();

  /// True when no transfer is queued or in flight.
  [[nodiscard]] bool drained() const;

  /// Run until drained or `max_cycles` elapse; returns true when drained.
  /// Takes a full step() at every cycle that can decide something (a
  /// grant, a retirement, an eligibility, a stall end, an epoch boundary)
  /// and jumps over the cycles in between in one call, with bit-identical
  /// results to stepping every cycle.
  bool run_until_drained(std::uint64_t max_cycles);

  /// Fast-forward `cycles` of traffic-free time (compute phases between
  /// layers): epoch boundaries still fire — with whatever demand the
  /// partial epoch accumulated, then zero — so ReSiPI downshifts exactly as
  /// it would under per-cycle stepping, without stepping per cycle (the
  /// same jump run_until_drained() takes). Requires drained().
  void advance_idle(std::uint64_t cycles);

  /// advance_idle() in seconds of the gateway clock domain.
  void advance_idle_s(double seconds);

  /// Sampled-fidelity fast-forward support: book one layer's per-chiplet
  /// traffic demand (as inject_* would) and advance its wall-clock
  /// duration without simulating the transfers. Epoch boundaries fire on
  /// the real clock-aligned grid with real cross-layer demand carry, so
  /// the embedded ReSiPI controller marches through the demand history of
  /// layers the caller simulated analytically and a later cycle-simulated
  /// window starts from the same activation state a continuous cycle run
  /// would have reached (instead of a stale configuration that inflates
  /// the window's measured transfer time). Requires drained();
  /// reconfiguration counts/energy accrue to the controller as usual.
  void warm_layer(const std::vector<std::uint64_t>& demand_bits,
                  double duration_s);

  // ---- observability ----

  [[nodiscard]] std::uint64_t cycle() const { return now_; }
  [[nodiscard]] double clock_hz() const {
    return config_.interposer.gateway_clock_hz;
  }
  [[nodiscard]] double time_s() const {
    return static_cast<double>(now_) / clock_hz();
  }
  [[nodiscard]] const PhotonicCycleNetStats& stats() const { return stats_; }
  /// Retired transfers in completion order (grows monotonically; callers
  /// track their own read index for windowed accounting).
  [[nodiscard]] const std::vector<CompletedTransfer>& completed() const {
    return completed_;
  }
  [[nodiscard]] const ResipiController& controller() const {
    return controller_;
  }
  /// Sum over elapsed cycles of total active gateways (time-weighted
  /// activation integral, for static-power accounting).
  [[nodiscard]] std::uint64_t gateway_cycle_weight() const {
    return gateway_cycle_weight_;
  }
  [[nodiscard]] std::size_t chiplet_count() const { return chiplets_.size(); }
  [[nodiscard]] double bits_per_cycle_per_channel() const {
    return bits_per_cycle_per_channel_;
  }
  [[nodiscard]] std::uint64_t store_forward_cycles() const {
    return store_forward_cycles_;
  }
  [[nodiscard]] std::uint64_t time_of_flight_cycles() const {
    return tof_cycles_;
  }
  [[nodiscard]] std::uint64_t epoch_cycles() const { return epoch_cycles_; }
  [[nodiscard]] const PhotonicCycleNetConfig& config() const {
    return config_;
  }
  /// True while `chiplet`'s gateways are dark mid-PCM-write.
  [[nodiscard]] bool stalled(std::size_t chiplet) const;

 private:
  struct ReadTransfer {
    std::uint64_t id = 0;
    std::vector<std::size_t> targets;
    std::uint64_t payload_bits = 0;
    double remaining_bits = 0.0;
    std::uint64_t inject_cycle = 0;
    std::uint64_t eligible_cycle = 0;  ///< after store-and-forward fill
    std::size_t channels = 0;          ///< granted wavelength slice
    bool granted = false;
  };
  struct WriteTransfer {
    std::uint64_t id = 0;
    std::uint64_t payload_bits = 0;
    double remaining_bits = 0.0;
    std::uint64_t inject_cycle = 0;
    std::uint64_t eligible_cycle = 0;
  };
  struct ChipletState {
    std::vector<WriteTransfer> write_queue;  ///< FIFO, head serializing
    std::size_t read_channels_in_use = 0;
    std::uint64_t stall_until_cycle = 0;
    std::uint64_t epoch_demand_bits = 0;
  };

  /// The phases step() runs each cycle: the evaluates stage, the commits
  /// apply.
  void evaluate_broadcast();
  void commit_broadcast();
  void evaluate_returns();
  void commit_returns();
  void commit_epoch();

  void run_epoch_boundary(std::uint64_t boundary_cycle);
  /// Jump from now_ toward `end` over cycles in which no decision can
  /// change, adding in one step what each skipped cycle would have added;
  /// runs the epoch boundary the jump reaches. May jump zero cycles.
  void fast_forward(std::uint64_t end);
  /// Bits one cycle serializes over `channels` wavelengths.
  [[nodiscard]] double per_cycle_bits(std::size_t channels) const {
    return static_cast<double>(channels) * bits_per_cycle_per_channel_;
  }
  /// True while any of `t`'s readers is stalled (its filter rows are dark).
  [[nodiscard]] bool paused(const ReadTransfer& t) const;
  [[nodiscard]] std::size_t reader_capacity(std::size_t chiplet) const;
  [[nodiscard]] std::size_t active_gateways(std::size_t chiplet) const;
  void retire(std::uint64_t id, bool is_write, std::uint64_t inject_cycle,
              std::uint64_t bits);

  PhotonicCycleNetConfig config_;
  PhotonicInterposer interposer_;
  ResipiController controller_;

  // Derived timing constants (gateway clock domain).
  double bits_per_cycle_per_channel_ = 0.0;
  std::uint64_t store_forward_cycles_ = 0;
  std::uint64_t tof_cycles_ = 0;
  std::uint64_t epoch_cycles_ = 0;
  std::uint64_t pcm_write_cycles_ = 0;

  /// The clock: stepped cycles plus fast-forward jumps.
  std::uint64_t now_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t free_channels_ = 0;

  std::vector<ReadTransfer> reads_;  ///< FIFO: granted + waiting
  std::vector<ChipletState> chiplets_;

  // Staged during evaluate, applied at commit (two-phase contract).
  std::vector<std::size_t> retired_read_slots_;
  std::vector<std::size_t> granted_read_slots_;
  std::vector<std::size_t> granted_read_channels_;
  std::vector<std::size_t> retired_write_chiplets_;
  /// Per-chiplet filter channels granted so far in this cycle's evaluate.
  std::vector<std::size_t> staged_in_use_;

  std::vector<CompletedTransfer> completed_;
  PhotonicCycleNetStats stats_;
  std::uint64_t gateway_cycle_weight_ = 0;

  /// Trace track for epoch spans (allocated once when config_.recorder
  /// traces; 0 otherwise).
  std::uint64_t epoch_track_ = 0;
};

}  // namespace optiplet::noc
