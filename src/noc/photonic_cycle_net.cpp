#include "noc/photonic_cycle_net.hpp"

#include <algorithm>
#include <cmath>

#include "obs/recorder.hpp"
#include "util/require.hpp"

namespace optiplet::noc {

namespace {

PhotonicCycleNetConfig resolve_config(PhotonicCycleNetConfig config) {
  if (config.chiplet_count == 0) {
    config.chiplet_count = config.interposer.compute_chiplets;
  }
  return config;
}

std::uint64_t cycles_for(double seconds, double clock_hz) {
  return static_cast<std::uint64_t>(std::ceil(seconds * clock_hz - 1e-9));
}

/// Serialization progress below this many bits counts as done (guards the
/// floating-point remainder of fractional bits-per-cycle rates).
constexpr double kRemainderTolerance = 1e-6;

// ---- serialization countdown in bulk -----------------------------------
//
// A serializing transfer loses `per_cycle` bits each cycle
// (`remaining -= per_cycle`) and retires in the first cycle that leaves
// `remaining <= kRemainderTolerance`. A live transfer therefore holds more
// than kRemainderTolerance bits.
//
// Closed form. When `remaining` and `per_cycle` are both integers below
// 2^53, every operand and every difference `remaining - j * per_cycle`
// along the way is an integer of magnitude below 2^53, which a double
// represents exactly; IEEE subtraction of exactly representable values
// whose exact difference is representable returns that difference. So k
// cycles leave exactly `remaining - k * per_cycle`, an integer, which is
// <= kRemainderTolerance exactly when it is <= 0: the transfer retires in
// cycle k = ceil(remaining / per_cycle) >= 1, after k - 1 =
// floor((remaining - 1) / per_cycle) cycles that leave it live. Integral
// rates cover every
// in-repo configuration (12 Gb/s OOK or 24 Gb/s PAM-4 at a 2 GHz gateway
// clock: 6 or 12 bits per channel per cycle), and payloads start integral.
//
// Replay. Any other pair (a fractional rate such as 10 Gb/s at 3 GHz, or
// a remainder left fractional by one) replays the same subtraction one
// cycle at a time, which rounds exactly as per-cycle stepping does.

/// 2^53: every integer below it is exact as a double.
constexpr double kExactIntegerLimit = 9007199254740992.0;

bool exact_integer(double x) {
  return x >= 0.0 && x < kExactIntegerLimit && x == std::floor(x);
}

/// How many cycles, at most `horizon`, a live transfer serializes before
/// the cycle in which it retires. A zero rate never retires.
std::uint64_t live_cycles(double remaining, double per_cycle,
                          std::uint64_t horizon) {
  if (per_cycle <= 0.0) {
    return horizon;
  }
  if (exact_integer(remaining) && exact_integer(per_cycle)) {
    const auto r = static_cast<std::uint64_t>(remaining);
    const auto s = static_cast<std::uint64_t>(per_cycle);
    return std::min(horizon, (r - 1) / s);
  }
  std::uint64_t j = 0;
  while (j < horizon) {
    remaining -= per_cycle;
    if (remaining <= kRemainderTolerance) {
      break;
    }
    ++j;
  }
  return j;
}

/// Apply `span` cycles of serialization to a transfer that stays live
/// through them (span <= live_cycles(...)).
void count_down(double& remaining, double per_cycle, std::uint64_t span) {
  if (per_cycle <= 0.0) {
    return;
  }
  if (exact_integer(remaining) && exact_integer(per_cycle)) {
    // span * per_cycle < remaining < 2^53: exact in integers.
    const auto r = static_cast<std::uint64_t>(remaining);
    const auto s = static_cast<std::uint64_t>(per_cycle);
    remaining = static_cast<double>(r - span * s);
    return;
  }
  for (std::uint64_t j = 0; j < span; ++j) {
    remaining -= per_cycle;
  }
}

}  // namespace

PhotonicCycleNet::PhotonicCycleNet(const PhotonicCycleNetConfig& config,
                                   const power::PhotonicTech& tech)
    : config_(resolve_config(config)),
      interposer_(config_.interposer, tech),
      controller_(config_.resipi, config_.chiplet_count,
                  config_.interposer.gateways_per_chiplet,
                  interposer_.gateway_bandwidth_bps(), tech.pcm),
      chiplets_(config_.chiplet_count),
      staged_in_use_(config_.chiplet_count, 0) {
  const double clock = config_.interposer.gateway_clock_hz;
  bits_per_cycle_per_channel_ =
      photonics::line_rate_bps(config_.interposer.modulation,
                               config_.interposer
                                   .data_rate_per_wavelength_bps) /
      clock;
  OPTIPLET_REQUIRE(bits_per_cycle_per_channel_ > 0.0,
                   "line rate must be positive");
  store_forward_cycles_ =
      cycles_for(interposer_.compute_gateway().store_forward_latency_s(),
                 clock);
  tof_cycles_ = cycles_for(interposer_.time_of_flight_s(), clock);
  epoch_cycles_ = std::max<std::uint64_t>(
      1, cycles_for(config_.resipi.epoch_s, clock));
  pcm_write_cycles_ = cycles_for(tech.pcm.write_time_s, clock);
  free_channels_ = config_.interposer.total_wavelengths;

  controller_.set_recorder(config_.recorder);
  if (config_.recorder != nullptr && config_.recorder->tracing()) {
    obs::Recorder& rec = *config_.recorder;
    rec.trace().set_process_name(rec.pid(), "noc");
    epoch_track_ = rec.trace().track(rec.pid(), "resipi");
  }
}

std::size_t PhotonicCycleNet::active_gateways(std::size_t chiplet) const {
  return config_.resipi_enabled ? controller_.active_gateways(chiplet)
                                : config_.interposer.gateways_per_chiplet;
}

std::size_t PhotonicCycleNet::reader_capacity(std::size_t chiplet) const {
  return active_gateways(chiplet) * interposer_.wavelengths_per_gateway();
}

bool PhotonicCycleNet::stalled(std::size_t chiplet) const {
  OPTIPLET_REQUIRE(chiplet < chiplets_.size(), "chiplet index out of range");
  return chiplets_[chiplet].stall_until_cycle > now_;
}

bool PhotonicCycleNet::paused(const ReadTransfer& t) const {
  return std::any_of(t.targets.begin(), t.targets.end(),
                     [this](std::size_t c) { return stalled(c); });
}

std::uint64_t PhotonicCycleNet::inject_read(std::size_t chiplet,
                                            std::uint64_t bits) {
  return inject_broadcast({chiplet}, bits);
}

std::uint64_t PhotonicCycleNet::inject_broadcast(
    const std::vector<std::size_t>& targets, std::uint64_t bits) {
  OPTIPLET_REQUIRE(!targets.empty(), "broadcast needs at least one target");
  OPTIPLET_REQUIRE(bits >= 1, "empty transfer");
  ReadTransfer t;
  t.id = next_id_++;
  t.targets = targets;
  for (const std::size_t c : t.targets) {
    OPTIPLET_REQUIRE(c < chiplets_.size(), "chiplet index out of range");
    chiplets_[c].epoch_demand_bits += bits;
  }
  t.payload_bits = bits;
  t.remaining_bits = static_cast<double>(bits);
  t.inject_cycle = now_;
  t.eligible_cycle = now_ + store_forward_cycles_;
  reads_.push_back(std::move(t));
  return reads_.back().id;
}

std::uint64_t PhotonicCycleNet::inject_write(std::size_t chiplet,
                                             std::uint64_t bits) {
  OPTIPLET_REQUIRE(chiplet < chiplets_.size(), "chiplet index out of range");
  OPTIPLET_REQUIRE(bits >= 1, "empty transfer");
  WriteTransfer t;
  t.id = next_id_++;
  t.payload_bits = bits;
  t.remaining_bits = static_cast<double>(bits);
  t.inject_cycle = now_;
  t.eligible_cycle = now_ + store_forward_cycles_;
  chiplets_[chiplet].epoch_demand_bits += bits;
  chiplets_[chiplet].write_queue.push_back(std::move(t));
  return chiplets_[chiplet].write_queue.back().id;
}

void PhotonicCycleNet::retire(std::uint64_t id, bool is_write,
                              std::uint64_t inject_cycle, std::uint64_t bits) {
  CompletedTransfer done;
  done.id = id;
  done.is_write = is_write;
  done.inject_cycle = inject_cycle;
  done.done_cycle = now_ + 1 + tof_cycles_;
  const auto latency = static_cast<double>(done.done_cycle - inject_cycle);
  if (is_write) {
    stats_.write_latency_cycles.add(latency);
    stats_.write_bits_delivered += bits;
    ++stats_.writes_completed;
  } else {
    stats_.read_latency_cycles.add(latency);
    stats_.read_bits_delivered += bits;
    ++stats_.reads_completed;
  }
  completed_.push_back(done);
}

// ---- SWMR broadcast (memory -> chiplets) -----------------------------------

void PhotonicCycleNet::evaluate_broadcast() {
  retired_read_slots_.clear();
  granted_read_slots_.clear();
  granted_read_channels_.clear();

  // 1. Progress granted transfers whose every target is unstalled; stage
  //    retirements. A stalled reader pauses the transfer: its filter rows
  //    are dark while the PCM write is in flight.
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    ReadTransfer& t = reads_[i];
    if (!t.granted || paused(t)) {
      continue;
    }
    t.remaining_bits -= per_cycle_bits(t.channels);
    if (t.remaining_bits <= kRemainderTolerance) {
      retired_read_slots_.push_back(i);
    }
  }

  // 2. Grant waiting transfers in FIFO order. Each grant takes a fixed
  //    wavelength slice bounded by the medium's free channels and by every
  //    target reader's free filter capacity; transfers that cannot get a
  //    single channel wait, but later transfers to other readers may still
  //    grant (no head-of-line blocking across destinations). Channels freed
  //    by this cycle's retirements become grantable next cycle (filter-row
  //    re-tuning turnaround).
  std::size_t medium_free = free_channels_;
  std::fill(staged_in_use_.begin(), staged_in_use_.end(), 0);
  for (std::size_t i = 0; i < reads_.size() && medium_free > 0; ++i) {
    const ReadTransfer& t = reads_[i];
    if (t.granted || now_ < t.eligible_cycle) {
      continue;
    }
    bool blocked = false;
    std::size_t cap = medium_free;
    for (const std::size_t c : t.targets) {
      if (stalled(c)) {
        blocked = true;
        break;
      }
      const std::size_t used =
          chiplets_[c].read_channels_in_use + staged_in_use_[c];
      const std::size_t capacity = reader_capacity(c);
      if (used >= capacity) {
        blocked = true;
        break;
      }
      cap = std::min(cap, capacity - used);
    }
    if (blocked || cap == 0) {
      continue;
    }
    for (const std::size_t c : t.targets) {
      staged_in_use_[c] += cap;
    }
    medium_free -= cap;
    granted_read_slots_.push_back(i);
    granted_read_channels_.push_back(cap);
  }
}

void PhotonicCycleNet::commit_broadcast() {
  for (std::size_t g = 0; g < granted_read_slots_.size(); ++g) {
    ReadTransfer& t = reads_[granted_read_slots_[g]];
    t.granted = true;
    t.channels = granted_read_channels_[g];
    free_channels_ -= t.channels;
    for (const std::size_t c : t.targets) {
      chiplets_[c].read_channels_in_use += t.channels;
    }
  }
  // Erase retired slots back to front so earlier indices stay valid.
  for (auto it = retired_read_slots_.rbegin();
       it != retired_read_slots_.rend(); ++it) {
    const ReadTransfer& t = reads_[*it];
    free_channels_ += t.channels;
    for (const std::size_t c : t.targets) {
      chiplets_[c].read_channels_in_use -= t.channels;
    }
    retire(t.id, /*is_write=*/false, t.inject_cycle, t.payload_bits);
    reads_.erase(reads_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
}

// ---- SWSR returns (chiplet -> memory) --------------------------------------

void PhotonicCycleNet::evaluate_returns() {
  retired_write_chiplets_.clear();
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    ChipletState& state = chiplets_[c];
    if (state.write_queue.empty() || stalled(c)) {
      continue;
    }
    WriteTransfer& head = state.write_queue.front();
    // One cycle of modulator-row turnaround after eligibility, mirroring
    // the read path's grant cycle.
    if (now_ <= head.eligible_cycle) {
      continue;
    }
    // The dedicated return waveguide serializes at the chiplet's currently
    // active modulator bandwidth; activation changes apply per cycle.
    head.remaining_bits -= per_cycle_bits(reader_capacity(c));
    if (head.remaining_bits <= kRemainderTolerance) {
      retired_write_chiplets_.push_back(c);
    }
  }
}

void PhotonicCycleNet::commit_returns() {
  for (const std::size_t c : retired_write_chiplets_) {
    ChipletState& state = chiplets_[c];
    const WriteTransfer head = state.write_queue.front();
    state.write_queue.erase(state.write_queue.begin());
    retire(head.id, /*is_write=*/true, head.inject_cycle, head.payload_bits);
  }
}

// ---- ReSiPI epochs ---------------------------------------------------------

void PhotonicCycleNet::commit_epoch() {
  std::uint64_t active = 0;
  bool any_stalled = false;
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    active += active_gateways(c);
    any_stalled = any_stalled || stalled(c);
  }
  gateway_cycle_weight_ += active;
  if (any_stalled) {
    ++stats_.stall_cycles;
  }
  if (config_.resipi_enabled && (now_ + 1) % epoch_cycles_ == 0) {
    run_epoch_boundary(now_ + 1);
  }
}

void PhotonicCycleNet::run_epoch_boundary(std::uint64_t boundary_cycle) {
  std::vector<double> demands(chiplets_.size(), 0.0);
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    demands[c] = static_cast<double>(chiplets_[c].epoch_demand_bits) /
                 config_.resipi.epoch_s;
  }
  std::vector<std::size_t> before(chiplets_.size(), 0);
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    before[c] = controller_.active_gateways(c);
  }
  const std::size_t writes = controller_.observe_epoch(demands);
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    chiplets_[c].epoch_demand_bits = 0;
    if (controller_.active_gateways(c) != before[c]) {
      // The PCM write gates this chiplet's gateways for the write latency:
      // the activation change commits now, the light comes back after it.
      chiplets_[c].stall_until_cycle = boundary_cycle + pcm_write_cycles_;
    }
  }
  ++stats_.epochs;
  if (config_.recorder != nullptr) {
    obs::Recorder& rec = *config_.recorder;
    const double end_s = static_cast<double>(boundary_cycle) / clock_hz();
    if (rec.tracing()) {
      const double start_s =
          static_cast<double>(boundary_cycle - epoch_cycles_) / clock_hz();
      rec.trace().add_complete(
          "epoch", "noc", start_s, end_s, rec.pid(), epoch_track_,
          {obs::arg("writes", static_cast<std::uint64_t>(writes)),
           obs::arg("active_gateways", static_cast<std::uint64_t>(
                                           controller_
                                               .total_active_gateways()))});
    }
    if (rec.metering()) {
      rec.metrics().snapshot(end_s);
    }
  }
}

// ---- driving ---------------------------------------------------------------

void PhotonicCycleNet::step() {
  evaluate_broadcast();
  evaluate_returns();
  commit_broadcast();
  commit_returns();
  commit_epoch();
  ++now_;
}

bool PhotonicCycleNet::drained() const {
  if (!reads_.empty()) {
    return false;
  }
  for (const auto& c : chiplets_) {
    if (!c.write_queue.empty()) {
      return false;
    }
  }
  return true;
}

bool PhotonicCycleNet::run_until_drained(std::uint64_t max_cycles) {
  const std::uint64_t end =
      now_ + std::min(max_cycles, ~std::uint64_t{0} - now_);
  while (now_ < end && !drained()) {
    step();
    // Channels freed by a retirement are grantable next cycle, and a grant
    // or a boundary changes what the next cycle may grant: step again.
    // After a quiet step only an event can change a decision.
    const bool decided = !granted_read_slots_.empty() ||
                         !retired_read_slots_.empty() ||
                         !retired_write_chiplets_.empty() ||
                         (config_.resipi_enabled && now_ % epoch_cycles_ == 0);
    if (!decided) {
      fast_forward(end);
    }
  }
  return drained();
}

void PhotonicCycleNet::advance_idle(std::uint64_t cycles) {
  OPTIPLET_REQUIRE(drained(), "advance_idle requires a drained network");
  const std::uint64_t end = now_ + cycles;
  while (now_ < end) {
    fast_forward(end);
  }
}

void PhotonicCycleNet::fast_forward(std::uint64_t end) {
  // The jump ends at the first cycle that must be stepped in full, or at
  // the next epoch boundary b: it then covers cycles up to b - 1 at the
  // pre-boundary activation and runs the boundary, as commit_epoch does
  // in cycle b - 1.
  std::uint64_t target = end;
  if (config_.resipi_enabled) {
    target = std::min(target, (now_ / epoch_cycles_ + 1) * epoch_cycles_);
  }
  // A stall end relights a chiplet; stalls only begin at boundaries, so
  // whoever is stalled now stays stalled for the whole jump. A write head
  // starts serializing the cycle after its eligibility.
  bool any_stalled = false;
  for (const ChipletState& state : chiplets_) {
    if (state.stall_until_cycle > now_) {
      any_stalled = true;
      target = std::min(target, state.stall_until_cycle);
    }
    if (!state.write_queue.empty() &&
        now_ <= state.write_queue.front().eligible_cycle) {
      target = std::min(target, state.write_queue.front().eligible_cycle + 1);
    }
  }
  // A waiting read may be granted once it is eligible, or right now if a
  // reader's stall ended this very cycle.
  for (const ReadTransfer& t : reads_) {
    if (t.granted) {
      continue;
    }
    if (t.eligible_cycle >= now_) {
      target = std::min(target, t.eligible_cycle);
    }
    if (std::any_of(t.targets.begin(), t.targets.end(),
                    [this](std::size_t c) {
                      return chiplets_[c].stall_until_cycle == now_;
                    })) {
      return;
    }
  }
  if (target <= now_) {
    return;
  }

  // The transfers that serialize in every cycle of the jump: granted reads
  // with no stalled reader and unstalled write heads past eligibility.
  const auto for_each_progressing = [this](auto&& visit) {
    for (ReadTransfer& t : reads_) {
      if (t.granted && !paused(t)) {
        visit(t.remaining_bits, per_cycle_bits(t.channels));
      }
    }
    for (std::size_t c = 0; c < chiplets_.size(); ++c) {
      ChipletState& state = chiplets_[c];
      if (!state.write_queue.empty() &&
          now_ > state.write_queue.front().eligible_cycle && !stalled(c)) {
        visit(state.write_queue.front().remaining_bits,
              per_cycle_bits(reader_capacity(c)));
      }
    }
  };
  // Their retirement cycles are stepped in full.
  for_each_progressing([&](double remaining, double per_cycle) {
    target = now_ + live_cycles(remaining, per_cycle, target - now_);
  });
  if (target <= now_) {
    return;
  }

  const std::uint64_t span = target - now_;
  for_each_progressing([span](double& remaining, double per_cycle) {
    count_down(remaining, per_cycle, span);
  });
  std::uint64_t active = 0;
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    active += active_gateways(c);
  }
  gateway_cycle_weight_ += active * span;
  if (any_stalled) {
    stats_.stall_cycles += span;
  }
  now_ = target;
  if (config_.resipi_enabled && now_ % epoch_cycles_ == 0) {
    run_epoch_boundary(now_);
  }
}

void PhotonicCycleNet::advance_idle_s(double seconds) {
  OPTIPLET_REQUIRE(seconds >= 0.0, "idle time must be non-negative");
  advance_idle(cycles_for(seconds, clock_hz()));
}

void PhotonicCycleNet::warm_layer(const std::vector<std::uint64_t>& demand_bits,
                                  double duration_s) {
  OPTIPLET_REQUIRE(drained(), "warm_layer requires a drained network");
  OPTIPLET_REQUIRE(demand_bits.size() == chiplets_.size(),
                   "warm_layer demand vector size mismatch");
  OPTIPLET_REQUIRE(duration_s >= 0.0, "layer duration must be non-negative");
  // Book the layer's traffic exactly as inject_* would, then fast-forward
  // its wall time: epoch boundaries fire on the real (clock-aligned) grid
  // with real cross-layer demand carry, so the controller upshifts,
  // downshifts, and hysteresis-holds through the fast-forwarded span just
  // as it would in a continuous cycle run.
  for (std::size_t c = 0; c < chiplets_.size(); ++c) {
    chiplets_[c].epoch_demand_bits += demand_bits[c];
  }
  advance_idle_s(duration_s);
}

}  // namespace optiplet::noc
