#include "noc/photonic_cycle_net.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace optiplet::noc {
namespace {

PhotonicCycleNetConfig pinned_config() {
  PhotonicCycleNetConfig cfg;
  cfg.resipi_enabled = false;  // all gateways lit: pure-medium behavior
  return cfg;
}

/// Expected zero-load latency [cycles] for one transfer serialized over
/// `channels` wavelengths: store-and-forward fill, grant turnaround, the
/// serialization itself, and photon time of flight.
std::uint64_t expected_zero_load_cycles(const PhotonicCycleNet& net,
                                        std::uint64_t bits,
                                        std::size_t channels) {
  const auto serialize = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(bits) /
                (static_cast<double>(channels) *
                 net.bits_per_cycle_per_channel())));
  return net.store_forward_cycles() + serialize + 1 +
         net.time_of_flight_cycles();
}

TEST(PhotonicCycleNet, ZeroLoadReadLatencyIsExact) {
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  const std::uint64_t bits = 16'384;
  net.inject_read(0, bits);
  ASSERT_TRUE(net.run_until_drained(100'000));
  ASSERT_EQ(net.stats().reads_completed, 1u);
  // Full activation: the reader's 4x16-channel filter bank covers the whole
  // 64-wavelength medium.
  EXPECT_EQ(net.completed().front().done_cycle,
            expected_zero_load_cycles(net, bits, 64));
  EXPECT_EQ(net.stats().read_bits_delivered, bits);
}

TEST(PhotonicCycleNet, ZeroLoadWriteMatchesReadPath) {
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  const std::uint64_t bits = 16'384;
  net.inject_write(3, bits);
  ASSERT_TRUE(net.run_until_drained(100'000));
  ASSERT_EQ(net.stats().writes_completed, 1u);
  EXPECT_EQ(net.completed().front().done_cycle,
            expected_zero_load_cycles(net, bits, 64));
}

TEST(PhotonicCycleNet, BroadcastDeliversOnceOverSharedMedium) {
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  const std::uint64_t bits = 16'384;
  net.inject_broadcast({0, 1, 2}, bits);
  ASSERT_TRUE(net.run_until_drained(100'000));
  // One medium transfer, not one per reader: the SWMR bus carries the
  // payload once and every listed reader filter-drops it.
  EXPECT_EQ(net.stats().reads_completed, 1u);
  EXPECT_EQ(net.stats().read_bits_delivered, bits);
  EXPECT_EQ(net.completed().front().done_cycle,
            expected_zero_load_cycles(net, bits, 64));
}

TEST(PhotonicCycleNet, ReadsContendForTheMediumWritesDoNot) {
  // Two same-size reads to different chiplets share the 64-channel medium
  // FIFO-granted, so the second finishes roughly a serialization later;
  // two writes ride dedicated SWSR waveguides and finish together.
  const std::uint64_t bits = 16'384;
  PhotonicCycleNet reads(pinned_config(), power::PhotonicTech{});
  reads.inject_read(0, bits);
  reads.inject_read(1, bits);
  ASSERT_TRUE(reads.run_until_drained(100'000));
  ASSERT_EQ(reads.stats().reads_completed, 2u);
  const auto first = reads.completed()[0].done_cycle;
  const auto second = reads.completed()[1].done_cycle;
  EXPECT_GT(second, first);  // medium was occupied by the first grant

  PhotonicCycleNet writes(pinned_config(), power::PhotonicTech{});
  writes.inject_write(0, bits);
  writes.inject_write(1, bits);
  ASSERT_TRUE(writes.run_until_drained(100'000));
  ASSERT_EQ(writes.stats().writes_completed, 2u);
  EXPECT_EQ(writes.completed()[0].done_cycle,
            writes.completed()[1].done_cycle);
}

TEST(PhotonicCycleNet, SaturatedReadsApproachMediumBandwidth) {
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  const std::uint64_t bits = 16'384;
  const std::size_t packets = 100;
  for (std::size_t i = 0; i < packets; ++i) {
    net.inject_read(i % net.chiplet_count(), bits);
  }
  ASSERT_TRUE(net.run_until_drained(1'000'000));
  const double medium_bits_per_cycle =
      64.0 * net.bits_per_cycle_per_channel();
  const double delivered_fraction =
      static_cast<double>(net.stats().read_bits_delivered) /
      (static_cast<double>(net.cycle()) * medium_bits_per_cycle);
  // Back-to-back transfers keep the medium busy outside the initial
  // store-and-forward fill and the per-grant turnaround cycles.
  EXPECT_GT(delivered_fraction, 0.9);
  EXPECT_LE(delivered_fraction, 1.0);
}

TEST(PhotonicCycleNet, EpochDrivenUpshiftHysteresisAndDownshift) {
  PhotonicCycleNetConfig cfg;
  cfg.resipi.epoch_s = 1.0 * units::us;  // 2000 gateway cycles
  power::PhotonicTech tech;
  tech.pcm.write_time_s = 50.0 * units::ns;  // short stalls for the test
  PhotonicCycleNet net(cfg, tech);
  const double gw_bw = 16.0 * net.bits_per_cycle_per_channel() *
                       net.clock_hz();  // one gateway, bits/s
  ASSERT_NEAR(gw_bw, 192e9, 1e6);

  // Epoch 1: demand worth 3 gateways (2.45x one gateway at 85% target).
  net.inject_read(0, 400'000);
  // Provisioning lag: the controller cannot react before the boundary.
  while (net.cycle() < net.epoch_cycles() - 1) {
    net.step();
  }
  EXPECT_EQ(net.controller().active_gateways(0), 1u);
  net.step();  // commits the first epoch boundary
  EXPECT_EQ(net.controller().active_gateways(0), 3u);
  EXPECT_EQ(net.controller().reconfiguration_count(), 2u);

  // Epoch 2: demand needs only 2 gateways but would run them at 78% —
  // above the 60% downshift threshold, so hysteresis holds at 3.
  net.inject_read(0, 300'000);
  while (net.cycle() < 2 * net.epoch_cycles()) {
    net.step();
  }
  EXPECT_EQ(net.controller().active_gateways(0), 3u);
  EXPECT_EQ(net.controller().reconfiguration_count(), 2u);

  // Epoch 3: demand at 52% of a single gateway — below the threshold, so
  // the boundary downshifts to the minimum.
  net.inject_read(0, 100'000);
  while (net.cycle() < 3 * net.epoch_cycles()) {
    net.step();
  }
  EXPECT_EQ(net.controller().active_gateways(0), 1u);
  EXPECT_EQ(net.controller().reconfiguration_count(), 4u);

  // The PCM writes darkened chiplet 0's gateways for the write latency.
  EXPECT_GT(net.stats().stall_cycles, 0u);
  ASSERT_TRUE(net.run_until_drained(1'000'000));
  EXPECT_EQ(net.stats().epochs, 3u);
}

TEST(PhotonicCycleNet, PcmStallPausesInFlightTraffic) {
  PhotonicCycleNetConfig cfg;
  cfg.resipi.epoch_s = 1.0 * units::us;
  PhotonicCycleNet with_stall(cfg, power::PhotonicTech{});  // 1 us PCM write
  power::PhotonicTech instant;
  instant.pcm.write_time_s = 0.0;
  PhotonicCycleNet no_stall(cfg, instant);
  // Demand large enough to upshift at the first boundary and still be
  // serializing when the PCM write lands.
  with_stall.inject_read(0, 400'000);
  no_stall.inject_read(0, 400'000);
  ASSERT_TRUE(with_stall.run_until_drained(1'000'000));
  ASSERT_TRUE(no_stall.run_until_drained(1'000'000));
  EXPECT_GT(with_stall.stats().stall_cycles, 0u);
  EXPECT_EQ(no_stall.stats().stall_cycles, 0u);
  EXPECT_GT(with_stall.completed().front().done_cycle,
            no_stall.completed().front().done_cycle);
}

TEST(PhotonicCycleNet, AdvanceIdleDownshiftsThroughEpochBoundaries) {
  PhotonicCycleNetConfig cfg;
  cfg.resipi.epoch_s = 1.0 * units::us;
  power::PhotonicTech tech;
  tech.pcm.write_time_s = 50.0 * units::ns;
  PhotonicCycleNet net(cfg, tech);
  // Epoch 1 upshifts to 3 gateways; epoch 2's demand keeps hysteresis
  // holding them. All traffic drains inside epoch 3.
  net.inject_read(0, 400'000);
  while (net.cycle() < net.epoch_cycles()) {
    net.step();
  }
  net.inject_read(0, 300'000);
  while (net.cycle() < 2 * net.epoch_cycles() + 800) {
    net.step();
  }
  ASSERT_TRUE(net.drained());
  ASSERT_EQ(net.controller().active_gateways(0), 3u);
  const std::uint64_t cycle_before = net.cycle();
  // Two fast-forwarded epochs: the boundary inside the window must fire
  // with zero demand and park the extra gateways.
  net.advance_idle(2 * net.epoch_cycles());
  EXPECT_EQ(net.cycle(), cycle_before + 2 * net.epoch_cycles());
  EXPECT_EQ(net.controller().active_gateways(0), 1u);
  EXPECT_GE(net.stats().epochs, 3u);
}

TEST(PhotonicCycleNet, DeterministicAcrossIdenticalRuns) {
  const auto run = [] {
    PhotonicCycleNetConfig cfg;
    cfg.resipi.epoch_s = 1.0 * units::us;
    PhotonicCycleNet net(cfg, power::PhotonicTech{});
    for (std::size_t i = 0; i < 32; ++i) {
      net.inject_read(i % net.chiplet_count(), 10'000 + 1'000 * i);
      net.inject_write((i + 3) % net.chiplet_count(), 5'000 + 500 * i);
    }
    EXPECT_TRUE(net.run_until_drained(1'000'000));
    return std::tuple{net.cycle(), net.stats().read_latency_cycles.mean(),
                      net.stats().write_latency_cycles.mean(),
                      net.controller().reconfiguration_count(),
                      net.gateway_cycle_weight()};
  };
  EXPECT_EQ(run(), run());
}

TEST(PhotonicCycleNet, GatewayWeightTracksActivation) {
  // Pinned mode: every cycle carries chiplets * gateways_per_chiplet.
  PhotonicCycleNet net(pinned_config(), power::PhotonicTech{});
  net.inject_read(0, 16'384);
  ASSERT_TRUE(net.run_until_drained(100'000));
  EXPECT_EQ(net.gateway_cycle_weight(), net.cycle() * 8u * 4u);
}

TEST(PhotonicCycleNet, RejectsNonPositiveGatewayClock) {
  // The clock converts cycles to seconds; a zero or negative one is
  // refused while the net builds its interposer.
  for (const double clock_hz : {0.0, -1.0}) {
    PhotonicCycleNetConfig cfg = pinned_config();
    cfg.interposer.gateway_clock_hz = clock_hz;
    EXPECT_THROW(PhotonicCycleNet(cfg, power::PhotonicTech{}),
                 std::invalid_argument)
        << clock_hz;
  }
}

// ---- differential: per-cycle step() vs run_until_drained/advance_idle ----

/// One injection of a seeded script, made when the net reaches `cycle`.
struct ScriptOp {
  enum class Kind { kRead, kBroadcast, kWrite };
  std::uint64_t cycle = 0;
  Kind kind = Kind::kRead;
  std::vector<std::size_t> targets;
  std::uint64_t bits = 0;
};

/// Injections at non-decreasing cycles: bursts of same-cycle injections,
/// short gaps that leave transfers in flight, and long idle gaps spanning
/// several epochs. Sizes mix one-cycle transfers with ones large enough to
/// upshift a chiplet and run across several epochs.
std::vector<ScriptOp> make_script(std::uint64_t seed, std::size_t chiplets,
                                  std::uint64_t epoch_cycles) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  const std::uint64_t large =
      std::clamp<std::uint64_t>(150 * epoch_cycles, 2'000, 100'000);
  std::vector<ScriptOp> ops(6 + pick(6));
  std::uint64_t cycle = pick(50);
  for (ScriptOp& op : ops) {
    const std::uint64_t gap = pick(10);
    if (gap >= 8) {
      cycle += std::min<std::uint64_t>(2 * epoch_cycles, 1'000) + pick(200);
    } else if (gap >= 3) {
      cycle += pick(250);
    }
    op.cycle = cycle;
    const std::uint64_t kind = pick(10);
    op.kind = kind < 4   ? ScriptOp::Kind::kRead
              : kind < 6 ? ScriptOp::Kind::kBroadcast
                         : ScriptOp::Kind::kWrite;
    op.targets.push_back(pick(chiplets));
    if (op.kind == ScriptOp::Kind::kBroadcast) {
      for (std::uint64_t extra = 1 + pick(3); extra > 0; --extra) {
        const std::size_t c = pick(chiplets);
        if (std::find(op.targets.begin(), op.targets.end(), c) ==
            op.targets.end()) {
          op.targets.push_back(c);
        }
      }
    }
    // One size class in four is a multiple of 1,152 bits, which every
    // integral per-cycle rate of the cases below divides, so transfers
    // also retire on the last bit of a cycle.
    const std::uint64_t size_class = pick(4);
    op.bits = size_class == 0   ? 1 + pick(120)
              : size_class == 1 ? 1'152 * (1 + pick(large / 1'152))
                                : 400 + pick(large);
  }
  return ops;
}

void inject(PhotonicCycleNet& net, const ScriptOp& op) {
  switch (op.kind) {
    case ScriptOp::Kind::kRead:
      net.inject_read(op.targets.front(), op.bits);
      break;
    case ScriptOp::Kind::kBroadcast:
      net.inject_broadcast(op.targets, op.bits);
      break;
    case ScriptOp::Kind::kWrite:
      net.inject_write(op.targets.front(), op.bits);
      break;
  }
}

/// Everything a run exposes: final state plus a checkpoint at every
/// injection, so a divergence that later heals still shows.
struct NetSnapshot {
  std::vector<std::array<std::uint64_t, 6>> checkpoints;
  std::uint64_t cycle = 0;
  std::uint64_t gateway_cycle_weight = 0;
  std::vector<CompletedTransfer> completed;
  PhotonicCycleNetStats stats;
  std::uint64_t reconfigurations = 0;
  double reconfiguration_energy_j = 0.0;
  std::vector<std::size_t> active_gateways;
};

std::array<std::uint64_t, 6> checkpoint(const PhotonicCycleNet& net) {
  return {net.cycle(), net.gateway_cycle_weight(), net.stats().stall_cycles,
          net.stats().epochs, net.completed().size(),
          net.controller().reconfiguration_count()};
}

void finish(const PhotonicCycleNet& net, NetSnapshot& snap) {
  snap.cycle = net.cycle();
  snap.gateway_cycle_weight = net.gateway_cycle_weight();
  snap.completed = net.completed();
  snap.stats = net.stats();
  snap.reconfigurations = net.controller().reconfiguration_count();
  snap.reconfiguration_energy_j = net.controller().reconfiguration_energy_j();
  for (std::size_t c = 0; c < net.chiplet_count(); ++c) {
    snap.active_gateways.push_back(net.controller().active_gateways(c));
  }
}

constexpr std::uint64_t kDrainGuard = 2'000'000;

/// Reference: one step() per cycle, idle stretches included.
NetSnapshot run_stepped(const PhotonicCycleNetConfig& cfg,
                        const power::PhotonicTech& tech,
                        const std::vector<ScriptOp>& ops,
                        std::uint64_t idle_tail) {
  PhotonicCycleNet net(cfg, tech);
  NetSnapshot snap;
  for (const ScriptOp& op : ops) {
    while (net.cycle() < op.cycle) {
      net.step();
    }
    snap.checkpoints.push_back(checkpoint(net));
    inject(net, op);
  }
  for (std::uint64_t n = 0; n < kDrainGuard && !net.drained(); ++n) {
    net.step();
  }
  for (std::uint64_t n = 0; n < idle_tail; ++n) {
    net.step();
  }
  finish(net, snap);
  return snap;
}

/// The same script through the skip-ahead calls: run_until_drained up to
/// the next injection (often expiring mid-transfer), advance_idle over
/// what is left of the gap once drained.
NetSnapshot run_skip_ahead(const PhotonicCycleNetConfig& cfg,
                           const power::PhotonicTech& tech,
                           const std::vector<ScriptOp>& ops,
                           std::uint64_t idle_tail) {
  PhotonicCycleNet net(cfg, tech);
  NetSnapshot snap;
  for (const ScriptOp& op : ops) {
    if (net.cycle() < op.cycle &&
        net.run_until_drained(op.cycle - net.cycle())) {
      net.advance_idle(op.cycle - net.cycle());
    }
    snap.checkpoints.push_back(checkpoint(net));
    inject(net, op);
  }
  if (net.run_until_drained(kDrainGuard)) {
    net.advance_idle(idle_tail);
  }
  finish(net, snap);
  return snap;
}

void describe(std::ostringstream& out, const sim::RunningStat& a,
              const sim::RunningStat& b, const char* name) {
  if (out.tellp() > 0) {
    return;
  }
  if (a.count() != b.count() || a.mean() != b.mean() ||
      a.variance() != b.variance() || a.min() != b.min() ||
      a.max() != b.max()) {
    out << name << " differs (count " << a.count() << " vs " << b.count()
        << ", mean " << a.mean() << " vs " << b.mean() << ")";
  }
}

/// Empty when the two runs agree bit for bit; else the first difference.
std::string first_difference(const NetSnapshot& a, const NetSnapshot& b) {
  std::ostringstream out;
  for (std::size_t i = 0;
       i < std::min(a.checkpoints.size(), b.checkpoints.size()); ++i) {
    if (a.checkpoints[i] != b.checkpoints[i]) {
      out << "checkpoint " << i << " (cycle " << a.checkpoints[i][0]
          << ") differs";
      return out.str();
    }
  }
  if (a.completed.size() != b.completed.size()) {
    out << "completed " << a.completed.size() << " vs "
        << b.completed.size();
    return out.str();
  }
  for (std::size_t i = 0; i < a.completed.size(); ++i) {
    const CompletedTransfer& x = a.completed[i];
    const CompletedTransfer& y = b.completed[i];
    if (x.id != y.id || x.is_write != y.is_write ||
        x.inject_cycle != y.inject_cycle || x.done_cycle != y.done_cycle) {
      out << "completion " << i << ": id " << x.id << " done " << x.done_cycle
          << " vs id " << y.id << " done " << y.done_cycle;
      return out.str();
    }
  }
  describe(out, a.stats.read_latency_cycles, b.stats.read_latency_cycles,
           "read latency");
  describe(out, a.stats.write_latency_cycles, b.stats.write_latency_cycles,
           "write latency");
  const auto counter = [&out](const char* name, std::uint64_t x,
                              std::uint64_t y) {
    if (x != y && out.tellp() == 0) {
      out << name << " " << x << " vs " << y;
    }
  };
  counter("read bits", a.stats.read_bits_delivered,
          b.stats.read_bits_delivered);
  counter("write bits", a.stats.write_bits_delivered,
          b.stats.write_bits_delivered);
  counter("reads", a.stats.reads_completed, b.stats.reads_completed);
  counter("writes", a.stats.writes_completed, b.stats.writes_completed);
  counter("epochs", a.stats.epochs, b.stats.epochs);
  counter("stall cycles", a.stats.stall_cycles, b.stats.stall_cycles);
  counter("cycle", a.cycle, b.cycle);
  counter("gateway cycle weight", a.gateway_cycle_weight,
          b.gateway_cycle_weight);
  counter("reconfigurations", a.reconfigurations, b.reconfigurations);
  if (out.tellp() == 0 &&
      a.reconfiguration_energy_j != b.reconfiguration_energy_j) {
    out << "reconfiguration energy differs";
  }
  if (out.tellp() == 0 && a.active_gateways != b.active_gateways) {
    out << "active gateways differ";
  }
  return out.str();
}

struct DifferentialCase {
  const char* name = "";
  bool resipi = true;
  double epoch_s = 0.1 * units::us;
  double pcm_write_s = 20.0 * units::ns;
  double rate_bps = 12.0 * units::Gbps;
  double clock_hz = 2.0 * units::GHz;
  photonics::ModulationFormat modulation = photonics::ModulationFormat::kOok;
  std::size_t wavelengths = 64;
  std::uint64_t scripts = 4;
};

TEST(PhotonicCycleNet, SkipAheadMatchesPerCycleStepping) {
  // Short epochs and PCM writes keep every script to a few thousand cycles
  // while boundaries, upshifts, downshifts and stalls still land in the
  // middle of transfers. The rates cover integral (6, 12), dyadic (3.5)
  // and non-dyadic (3.33..., 2.33...) bits per channel per cycle.
  const std::vector<DifferentialCase> cases = {
      {.name = "ook-12G"},
      {.name = "pam4-24G-16wl",
       .modulation = photonics::ModulationFormat::kPam4,
       .wavelengths = 16},
      {.name = "resipi-off", .resipi = false},
      {.name = "instant-pcm", .pcm_write_s = 0.0},
      {.name = "long-pcm", .epoch_s = 0.2 * units::us,
       .pcm_write_s = 150.0 * units::ns, .scripts = 3},
      {.name = "3.5-bits", .rate_bps = 7.0 * units::Gbps},
      {.name = "3.33-bits", .rate_bps = 10.0 * units::Gbps,
       .clock_hz = 3.0 * units::GHz},
      {.name = "2.33-bits-resipi-off", .resipi = false,
       .rate_bps = 7.0 * units::Gbps, .clock_hz = 3.0 * units::GHz},
      {.name = "3.33-bits-long-pcm", .epoch_s = 0.2 * units::us,
       .pcm_write_s = 150.0 * units::ns, .rate_bps = 10.0 * units::Gbps,
       .clock_hz = 3.0 * units::GHz, .wavelengths = 32, .scripts = 2},
      // Every cycle is a boundary: nothing can be skipped.
      {.name = "one-cycle-epoch", .epoch_s = 0.5 * units::ns,
       .pcm_write_s = 2.0 * units::ns, .scripts = 2},
  };

  std::size_t scripts = 0;
  std::vector<std::string> failures;
  for (const DifferentialCase& dc : cases) {
    PhotonicCycleNetConfig cfg;
    cfg.resipi_enabled = dc.resipi;
    cfg.resipi.epoch_s = dc.epoch_s;
    cfg.interposer.data_rate_per_wavelength_bps = dc.rate_bps;
    cfg.interposer.gateway_clock_hz = dc.clock_hz;
    cfg.interposer.modulation = dc.modulation;
    cfg.interposer.total_wavelengths = dc.wavelengths;
    power::PhotonicTech tech;
    tech.pcm.write_time_s = dc.pcm_write_s;
    const PhotonicCycleNet probe(cfg, tech);
    for (std::uint64_t s = 1; s <= dc.scripts; ++s) {
      const std::uint64_t seed = s * 7919 + scripts;
      const std::vector<ScriptOp> ops =
          make_script(seed, probe.chiplet_count(), probe.epoch_cycles());
      const std::uint64_t tail = 2 * probe.epoch_cycles() + 37;
      const NetSnapshot stepped = run_stepped(cfg, tech, ops, tail);
      const NetSnapshot skipped = run_skip_ahead(cfg, tech, ops, tail);
      ++scripts;
      // Each script must drain and retire every injection.
      EXPECT_EQ(stepped.completed.size(), ops.size()) << dc.name;
      const std::string diff = first_difference(stepped, skipped);
      if (!diff.empty()) {
        failures.push_back(std::string(dc.name) + " seed " +
                           std::to_string(seed) + ": " + diff);
      }
    }
  }
  std::string report;
  for (std::size_t i = 0; i < std::min<std::size_t>(failures.size(), 5);
       ++i) {
    report += "\n  " + failures[i];
  }
  EXPECT_TRUE(failures.empty()) << failures.size() << " of " << scripts
                                << " scripts disagree:" << report;
}

}  // namespace
}  // namespace optiplet::noc
