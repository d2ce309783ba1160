#include "core/system_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>

#include "noc/photonic_cycle_net.hpp"
#include "util/math.hpp"
#include "util/require.hpp"

namespace optiplet::core {

using power::Category;

namespace {

/// DDR access energy for the monolithic chip's off-package memory [J/bit]
/// (DDR4-class; the 2.5D platforms use the HBM chiplet instead).
constexpr double kDdrEnergyPerBit = 15.0e-12;

/// Closed-form SiPh layer estimate: what the analytical path charges for
/// one layer. Under kSampled this is evaluated for *every* layer (keeping
/// the estimator's ReSiPI controller marching through a continuous demand
/// history) and doubles as the denominator of the correction ratio.
struct SiphEstimate {
  double read_s = 0.0;
  double write_s = 0.0;
  double overhead_s = 0.0;
  std::size_t gateways = 0;      ///< active per assigned chiplet
  std::size_t total_active = 0;  ///< across all chiplets
};

/// A platform group's static compute power, summed over its chiplets [W].
/// Fixed for a run, so run_2p5d computes it once.
struct GroupPower {
  double laser_w = 0.0;
  double rings_w = 0.0;
  double electronics_w = 0.0;
};

/// Compute-side energy of one layer. Compute chiplet lasers cannot be
/// duty-cycled at layer granularity (settling is orders of magnitude slower
/// than a layer): every chiplet holds its optical bias, ring trim and
/// electronics for the whole inference, on all architectures. What ReSiPI
/// gates dynamically is the interposer network, charged in run_2p5d.
/// Dynamic (DAC/ADC/buffer) energy follows the work.
void charge_compute(power::EnergyLedger& ledger,
                    const accel::Platform& platform,
                    const std::vector<GroupPower>& group_power,
                    const accel::LayerAssignment& assignment,
                    std::uint64_t macs, double layer_s) {
  for (std::size_t g = 0; g < group_power.size(); ++g) {
    const GroupPower& power = group_power[g];
    ledger.charge_power_for(Category::kComputeLaser, power.laser_w, layer_s);
    ledger.charge_power_for(Category::kComputeRings, power.rings_w, layer_s);
    ledger.charge_power_for(Category::kComputeElectronics,
                            power.electronics_w, layer_s);
    const accel::ComputeChiplet& chiplet = platform.groups()[g].chiplet;
    if (chiplet.kind() == assignment.group) {
      ledger.charge_energy(Category::kComputeDynamic,
                           chiplet.dynamic_energy_j(macs));
    }
  }
}

}  // namespace

SystemSimulator::SystemSimulator(const SystemConfig& config)
    : config_(config) {
  OPTIPLET_REQUIRE(config.parameter_bits >= 1, "parameter bits must be >= 1");
  OPTIPLET_REQUIRE(config.monolithic_memory_bandwidth_bps > 0.0,
                   "monolithic memory bandwidth must be positive");
  OPTIPLET_REQUIRE(config.batch_size >= 1, "batch size must be >= 1");
}

dnn::Workload SystemSimulator::batched_workload(
    const dnn::Model& model) const {
  dnn::Workload w = dnn::compute_workload(model, config_.parameter_bits);
  if (config_.batch_size == 1) {
    return w;
  }
  // Weights stream once per batch; compute and activations scale with the
  // batch. (MR weight banks hold the layer's kernel while the batch's
  // activation windows slide through — the broadcast-and-weight reuse.)
  const std::uint64_t n = config_.batch_size;
  w.total_macs = 0;
  w.total_activation_bits = 0;
  for (auto& layer : w.layers) {
    layer.macs *= n;
    layer.input_bits *= n;
    layer.output_bits *= n;
    layer.dot_count *= n;
    w.total_macs += layer.macs;
    w.total_activation_bits += layer.input_bits + layer.output_bits;
  }
  return w;
}

RunResult SystemSimulator::run(const dnn::Model& model,
                               accel::Architecture arch) const {
  if (arch == accel::Architecture::kMonolithicCrossLight) {
    return run_monolithic(model);
  }
  return run_2p5d(model, arch);
}

RunResult SystemSimulator::run_monolithic(const dnn::Model& model) const {
  RunResult result;
  result.model_name = model.name();
  result.arch = accel::Architecture::kMonolithicCrossLight;

  const dnn::Workload workload =
      batched_workload(model);
  const accel::Platform platform(
      accel::make_monolithic_spec(config_.monolithic_scale_divisor),
      config_.tech);
  const auto assignments = accel::map_layers(workload, platform);

  // The monolithic die shares one laser distribution across all unit
  // groups: it cannot be gated per layer, so the whole die's static power
  // burns for the full inference (the §V energy-efficiency argument).
  const double die_static_w = platform.peak_compute_power_w();

  // Small models live entirely in the die's global SRAM buffer: weights
  // stay resident across inferences and activations never leave the chip.
  const bool resident =
      workload.total_weight_bits <= config_.monolithic_onchip_buffer_bits;

  for (std::size_t i = 0; i < workload.layers.size(); ++i) {
    const dnn::LayerWork& lw = workload.layers[i];
    const accel::LayerAssignment& a = assignments[i];

    LayerResult lr;
    lr.layer_index = lw.layer_index;
    lr.group = a.group;
    lr.chiplets_used = 1;
    lr.compute_s = static_cast<double>(lw.macs) / a.macs_per_s;
    const std::uint64_t reads = resident ? 0 : lw.weight_bits + lw.input_bits;
    const std::uint64_t writes = resident ? 0 : lw.output_bits;
    lr.read_s = static_cast<double>(reads) /
                config_.monolithic_memory_bandwidth_bps;
    lr.write_s = static_cast<double>(writes) /
                 config_.monolithic_memory_bandwidth_bps;
    lr.overhead_s = config_.layer_overhead_monolithic_s;
    // Reads and writes share the single DDR port; the stream overlaps
    // compute through the on-die double buffers.
    lr.total_s =
        std::max(lr.compute_s, lr.read_s + lr.write_s) + lr.overhead_s;
    result.latency_s += lr.total_s;

    result.ledger.charge_power_for(Category::kComputeDieStatic,
                                   die_static_w, lr.total_s);
    result.ledger.charge_energy(
        Category::kComputeDynamic,
        platform.group_for(a.group).chiplet.dynamic_energy_j(lw.macs));
    result.ledger.charge_energy(
        Category::kMemoryDdrAccess,
        static_cast<double>(reads + writes) * kDdrEnergyPerBit);
    result.layers.push_back(lr);
  }
  if (resident) {
    // Resident models still move the input image in and the result out.
    const double io_s = static_cast<double>(
                            workload.layers.front().input_bits +
                            workload.layers.back().output_bits) /
                        config_.monolithic_memory_bandwidth_bps;
    result.latency_s += io_s;
    result.ledger.charge_power_for(Category::kComputeDieStatic,
                                   die_static_w, io_s);
  }
  result.ledger.charge_power_for(Category::kMemoryInterfaceStatic,
                                 config_.tech.compute.hbm_static_w,
                                 result.latency_s);

  result.traffic_bits = workload.total_traffic_bits();
  result.energy_j = result.ledger.total_energy_j(result.latency_s);
  result.average_power_w = result.energy_j / result.latency_s;
  result.epb_j_per_bit =
      result.energy_j / static_cast<double>(result.traffic_bits);
  return result;
}

RunResult SystemSimulator::run_2p5d(const dnn::Model& model,
                                    accel::Architecture arch) const {
  OPTIPLET_REQUIRE(arch == accel::Architecture::kElec2p5D ||
                       arch == accel::Architecture::kSiph2p5D,
                   "run_2p5d expects a 2.5D architecture");
  RunResult result;
  result.model_name = model.name();
  result.arch = arch;

  const dnn::Workload workload =
      batched_workload(model);
  const accel::Platform platform(config_.compute_2p5d, config_.tech);
  const auto assignments = accel::map_layers(workload, platform);

  const bool siph = arch == accel::Architecture::kSiph2p5D;
  const noc::PhotonicInterposer interposer(config_.photonic,
                                           config_.tech.photonic);
  const noc::ElecInterposerModel elec(config_.electrical,
                                      config_.tech.electrical);

  // Chiplet indexing for the ReSiPI controller: platform groups in order.
  std::size_t chiplet_count = platform.total_chiplets();
  noc::ResipiController controller(
      config_.resipi, chiplet_count, config_.photonic.gateways_per_chiplet,
      interposer.gateway_bandwidth_bps(), config_.tech.photonic.pcm);

  // High-fidelity photonic path: drive transfers through the
  // cycle-accurate interposer; its embedded controller sees real demand at
  // real epoch boundaries. kCycleAccurate routes every layer through it
  // (the outer `controller` then stays unused); kSampled routes the seeded
  // window subset and fast-forwards the rest on the analytical estimator.
  const bool cycle_siph =
      siph && config_.fidelity.mode == Fidelity::kCycleAccurate;
  const bool sampled_siph =
      siph && config_.fidelity.mode == Fidelity::kSampled;
  const std::vector<bool> sample_mask =
      sampled_siph ? sampled_layer_mask(workload.layers.size(),
                                        config_.fidelity, config_.batch_size)
                   : std::vector<bool>(workload.layers.size(), false);
  const bool any_sampled =
      std::find(sample_mask.begin(), sample_mask.end(), true) !=
      sample_mask.end();
  std::optional<noc::PhotonicCycleNet> net;
  if (cycle_siph || any_sampled) {
    noc::PhotonicCycleNetConfig net_cfg;
    net_cfg.interposer = config_.photonic;
    net_cfg.resipi = config_.resipi;
    net_cfg.chiplet_count = chiplet_count;
    net.emplace(net_cfg, config_.tech.photonic);
  }

  // First chiplet index of each group (groups are laid out contiguously)
  // and each group's static compute power.
  std::vector<std::size_t> group_first_chiplet;
  std::vector<GroupPower> group_power;
  {
    std::size_t base = 0;
    for (const auto& g : platform.groups()) {
      group_first_chiplet.push_back(base);
      base += g.chiplet_count;
      const double chiplets = static_cast<double>(g.chiplet_count);
      group_power.push_back(
          {g.chiplet.laser_electrical_power_w() * chiplets,
           g.chiplet.ring_tuning_power_w() * chiplets,
           g.chiplet.electronics_static_power_w() * chiplets});
    }
  }

  // Per-chiplet scratch the layer loop refills: the estimator's demand,
  // a layer's target chiplets and the warm-up demand bits.
  std::vector<double> demands(chiplet_count);
  std::vector<std::size_t> targets;
  targets.reserve(chiplet_count);
  std::vector<std::uint64_t> demand_bits(chiplet_count);

  double gateway_time_weight = 0.0;  // sum over layers of gw_active * t

  // Closed-form SiPh communication time for one layer at a given gateway
  // provisioning (pure function of the layer and the activation state).
  // Shared by the analytical estimate and by the sampled mode, which
  // re-evaluates it at the cycle net's own activation state so
  // fast-forwarded layers see the provisioning a continuous cycle run
  // would actually have reached.
  const auto siph_comm_at = [&](const dnn::LayerWork& lw,
                                const accel::LayerAssignment& a,
                                std::size_t gateways) {
    const double chiplets = static_cast<double>(a.chiplets_used);
    const std::uint64_t reads = lw.weight_bits + lw.input_bits;
    const std::uint64_t writes = lw.output_bits;
    const double chiplet_recv_bw = interposer.swsr_bandwidth_bps(gateways);
    const double read_bw =
        std::min(interposer.swmr_bandwidth_bps(
                     config_.photonic.total_wavelengths),
                 chiplets * chiplet_recv_bw);
    // Broadcast medium carries reads once; each chiplet's filter rows
    // must also keep up with its share + the broadcast inputs.
    const double per_chiplet_read_bits =
        static_cast<double>(lw.weight_bits) / chiplets +
        static_cast<double>(lw.input_bits);
    const double read_s = std::max(
        interposer.transfer_latency_s(reads, read_bw),
        interposer.transfer_latency_s(
            static_cast<std::uint64_t>(per_chiplet_read_bits),
            chiplet_recv_bw));
    const double write_s = interposer.transfer_latency_s(
        static_cast<std::uint64_t>(static_cast<double>(writes) / chiplets),
        chiplet_recv_bw);
    return std::make_pair(read_s, write_s);
  };

  // Closed-form SiPh layer estimate. Marches the outer `controller`
  // through the layer's epoch-averaged demand; pure computation otherwise
  // — no ledger charges — so the sampled mode can also evaluate it for
  // cycle-simulated layers (keeping the estimator's demand history
  // continuous) without double-charging energy.
  const auto estimate_siph_layer =
      [&](const dnn::LayerWork& lw, const accel::LayerAssignment& a,
          std::size_t group_index) -> SiphEstimate {
    const double chiplets = static_cast<double>(a.chiplets_used);
    const double compute_s = static_cast<double>(lw.macs) / a.macs_per_s;
    const std::uint64_t writes = lw.output_bits;
    // ReSiPI provisioning: demand per assigned chiplet if the layer ran at
    // compute speed (weights striped, inputs broadcast). The controller
    // sees epoch-averaged demand: layers shorter than an epoch cannot
    // justify more bandwidth than their bits spread over one epoch (this
    // is what keeps small models at minimum gateways).
    const double per_chiplet_bits =
        static_cast<double>(lw.weight_bits) / chiplets +
        static_cast<double>(lw.input_bits) +
        static_cast<double>(writes) / chiplets;
    const double demand_bps =
        per_chiplet_bits / std::max(compute_s, config_.resipi.epoch_s);
    std::fill(demands.begin(), demands.end(), 0.0);
    for (std::size_t c = 0;
         c < platform.groups()[group_index].chiplet_count; ++c) {
      demands[group_first_chiplet[group_index] + c] = demand_bps;
    }
    const std::size_t changes = controller.observe_epoch(demands);
    SiphEstimate est;
    est.gateways =
        controller.active_gateways(group_first_chiplet[group_index]);
    est.total_active = controller.total_active_gateways();
    std::tie(est.read_s, est.write_s) = siph_comm_at(lw, a, est.gateways);
    // Epoch quantization: a configuration change takes effect at the next
    // epoch boundary; charge the expected half-epoch lag.
    est.overhead_s = config_.layer_overhead_2p5d_s +
                     (changes > 0 ? config_.resipi.epoch_s / 2.0 : 0.0);
    return est;
  };

  // Sampled-mode stitching state: running cycle/analytical ratio-of-sums
  // corrections (exactly 1.0 until the first sample lands, so zero-window
  // plans reproduce the analytical mode bit-for-bit) plus Welford moments
  // of the per-layer comm ratios for the confidence band. Ratio-of-sums
  // rather than a per-layer mean: it estimates the *time-weighted* ratio,
  // so heavyweight layers dominate the calibration the same way they
  // dominate the latency being corrected. Both the denominator here and
  // the fast-forward estimates are evaluated at the cycle net's own
  // gateway activation state (kept marching by warm_layer), so the
  // correction measures residual serialization/arbitration error rather
  // than provisioning mismatch. Comm and overhead calibrate separately
  // because the cycle net folds reconfiguration transients into the
  // measured transfer time while the analytical model charges them as a
  // half-epoch stall in the layer overhead.
  double sampled_cycle_comm_s = 0.0;
  double sampled_est_comm_s = 0.0;
  double sampled_cycle_overhead_s = 0.0;
  double sampled_est_overhead_s = 0.0;
  std::size_t ratio_count = 0;
  double ratio_mean = 0.0;
  double ratio_m2 = 0.0;
  const auto comm_correction = [&] {
    return sampled_est_comm_s > 0.0
               ? sampled_cycle_comm_s / sampled_est_comm_s
               : 1.0;
  };
  const auto overhead_correction = [&] {
    return sampled_est_overhead_s > 0.0
               ? sampled_cycle_overhead_s / sampled_est_overhead_s
               : 1.0;
  };

  for (std::size_t i = 0; i < workload.layers.size(); ++i) {
    const dnn::LayerWork& lw = workload.layers[i];
    const accel::LayerAssignment& a = assignments[i];
    const double chiplets = static_cast<double>(a.chiplets_used);

    LayerResult lr;
    lr.layer_index = lw.layer_index;
    lr.group = a.group;
    lr.chiplets_used = a.chiplets_used;
    lr.compute_s = static_cast<double>(lw.macs) / a.macs_per_s;

    const std::uint64_t reads = lw.weight_bits + lw.input_bits;
    const std::uint64_t writes = lw.output_bits;

    std::size_t group_index = 0;
    for (std::size_t g = 0; g < platform.groups().size(); ++g) {
      if (platform.groups()[g].chiplet.kind() == a.group) {
        group_index = g;
        break;
      }
    }

    if (cycle_siph || sample_mask[i]) {
      // --- Cycle-accurate photonic path: inject the layer's transfers and
      // let the interposer arbitrate them. Weights are striped (one read
      // per assigned chiplet), inputs broadcast once over the SWMR medium,
      // writes return per chiplet over the SWSR waveguides.
      std::optional<SiphEstimate> est;
      double den_read_s = 0.0;
      double den_write_s = 0.0;
      if (sampled_siph) {
        est = estimate_siph_layer(lw, a, group_index);
        // Calibration denominator: the closed-form comm at the net's
        // activation state on window entry — the same state
        // fast-forwarded layers are estimated at.
        std::tie(den_read_s, den_write_s) =
            siph_comm_at(lw, a,
                         net->controller().active_gateways(
                             group_first_chiplet[group_index]));
      }
      const std::uint64_t cycle0 = net->cycle();
      const std::size_t completed0 = net->completed().size();
      targets.clear();
      for (std::size_t c = 0; c < a.chiplets_used; ++c) {
        targets.push_back(group_first_chiplet[group_index] + c);
      }
      const std::uint64_t weight_slice =
          (lw.weight_bits + a.chiplets_used - 1) / a.chiplets_used;
      const std::uint64_t write_slice =
          (writes + a.chiplets_used - 1) / a.chiplets_used;
      for (const std::size_t t : targets) {
        if (weight_slice > 0) {
          net->inject_read(t, weight_slice);
        }
        if (write_slice > 0) {
          net->inject_write(t, write_slice);
        }
      }
      if (lw.input_bits > 0) {
        net->inject_broadcast(targets, lw.input_bits);
      }
      // Drain bound: the whole layer at the minimum single-gateway rate,
      // with slack for store-and-forward and reconfiguration stalls.
      const double min_rate = static_cast<double>(
                                  interposer.wavelengths_per_gateway()) *
                              net->bits_per_cycle_per_channel();
      const auto drain_limit = static_cast<std::uint64_t>(
          4.0 * static_cast<double>(reads + writes) / min_rate + 1e6);
      OPTIPLET_REQUIRE(net->run_until_drained(drain_limit),
                       "photonic cycle net failed to drain a layer");
      // Wall-clock read/write completion, measured from comm start and
      // including photon time of flight.
      double read_done_cycles = 0.0;
      double write_done_cycles = 0.0;
      for (std::size_t k = completed0; k < net->completed().size(); ++k) {
        const auto& done = net->completed()[k];
        const auto rel = static_cast<double>(done.done_cycle - cycle0);
        if (done.is_write) {
          write_done_cycles = std::max(write_done_cycles, rel);
        } else {
          read_done_cycles = std::max(read_done_cycles, rel);
        }
      }
      lr.read_s = read_done_cycles / net->clock_hz();
      lr.write_s = write_done_cycles / net->clock_hz();
      const double comm_s = std::max(lr.read_s, lr.write_s);
      // Epoch transients (PCM write stalls, provisioning lag) are already
      // inside comm_s; only the layer barrier overhead remains.
      lr.overhead_s = config_.layer_overhead_2p5d_s;
      lr.total_s = std::max(lr.compute_s, comm_s) + lr.overhead_s;

      const std::size_t gw = net->controller().active_gateways(
          group_first_chiplet[group_index]);
      lr.gateways_per_chiplet = gw;

      // Static power in two phases with consistent (time, activation)
      // pairs: the comm phase at the drain-time configuration, then the
      // network-idle compute tail — fast-forwarded so ReSiPI sees the
      // low-demand epochs — at the post-downshift configuration. (Within
      // each phase the activation is an epoch-granular snapshot.)
      const auto charge_static = [&](std::size_t chiplet_gw,
                                     std::size_t total_gw, double seconds) {
        const auto active_lambda = std::clamp<std::size_t>(
            chiplet_gw * interposer.wavelengths_per_gateway(), 1,
            config_.photonic.total_wavelengths);
        result.ledger.charge_power_for(
            Category::kNetworkStatic,
            interposer.network_static_power_w(active_lambda, total_gw),
            seconds);
        gateway_time_weight += static_cast<double>(total_gw) * seconds;
      };
      const double elapsed_s =
          static_cast<double>(net->cycle() - cycle0) / net->clock_hz();
      const double comm_phase_s = std::min(elapsed_s, lr.total_s);
      charge_static(gw, net->controller().total_active_gateways(),
                    comm_phase_s);
      if (lr.total_s > elapsed_s) {
        net->advance_idle_s(lr.total_s - elapsed_s);
        charge_static(net->controller().active_gateways(
                          group_first_chiplet[group_index]),
                      net->controller().total_active_gateways(),
                      lr.total_s - elapsed_s);
      }
      result.ledger.charge_energy(Category::kNetworkTransfer,
                                  interposer.transfer_energy_j(
                                      reads + writes));
      if (est) {
        // Calibrate the stitching corrections: accumulate the sampled
        // cycle-vs-analytical comm and overhead times (their ratio-of-sums
        // is the applied correction), with per-layer Welford moments of
        // the comm ratio for the band.
        const double analytic_comm = std::max(den_read_s, den_write_s);
        const double cycle_comm = std::max(lr.read_s, lr.write_s);
        if (analytic_comm > 0.0 && cycle_comm > 0.0) {
          sampled_cycle_comm_s += cycle_comm;
          sampled_est_comm_s += analytic_comm;
          const double ratio = cycle_comm / analytic_comm;
          ++ratio_count;
          const double delta = ratio - ratio_mean;
          ratio_mean += delta / static_cast<double>(ratio_count);
          ratio_m2 += delta * (ratio - ratio_mean);
        }
        if (est->overhead_s > 0.0 && lr.overhead_s > 0.0) {
          sampled_cycle_overhead_s += lr.overhead_s;
          sampled_est_overhead_s += est->overhead_s;
        }
        ++result.sampled_layers;
      }
    } else if (siph) {
      // --- Analytical photonic path (every layer at kAnalytical; the
      // fast-forwarded layers at kSampled, with the sampled correction
      // applied — an exact identity until the first sample lands).
      const SiphEstimate est = estimate_siph_layer(lw, a, group_index);
      std::size_t gw = est.gateways;
      std::size_t total_gw = est.total_active;
      double read_raw = est.read_s;
      double write_raw = est.write_s;
      if (sampled_siph && net) {
        // Fast-forward at the cycle net's *own* activation state — the
        // provisioning a continuous cycle run would actually be at, which
        // the estimator's one-epoch-per-layer self-model systematically
        // over-provisions. Zero-window plans never construct the net and
        // all-window plans never reach this branch, so both degeneracies
        // stay bit-exact.
        gw = net->controller().active_gateways(
            group_first_chiplet[group_index]);
        total_gw = net->controller().total_active_gateways();
        std::tie(read_raw, write_raw) = siph_comm_at(lw, a, gw);
      }
      lr.gateways_per_chiplet = gw;
      lr.read_s = read_raw * comm_correction();
      lr.write_s = write_raw * comm_correction();

      // Reads and writes ride different waveguides: they overlap.
      const double comm_s = std::max(lr.read_s, lr.write_s);
      lr.overhead_s = est.overhead_s * overhead_correction();
      lr.total_s = std::max(lr.compute_s, comm_s) + lr.overhead_s;

      if (sampled_siph && net) {
        // Book the layer's traffic into the net's epoch accounting and
        // fast-forward its wall time: the embedded controller marches
        // through the same clock-aligned epoch grid (upshifts, idle
        // downshifts, cross-layer demand carry) as a continuous cycle
        // run, so the next sampled window opens at realistic provisioning
        // instead of a stale configuration that would poison the
        // calibration.
        std::fill(demand_bits.begin(), demand_bits.end(), 0);
        const std::uint64_t weight_slice =
            (lw.weight_bits + a.chiplets_used - 1) / a.chiplets_used;
        const std::uint64_t write_slice =
            (writes + a.chiplets_used - 1) / a.chiplets_used;
        for (std::size_t c = 0; c < a.chiplets_used; ++c) {
          demand_bits[group_first_chiplet[group_index] + c] =
              weight_slice + write_slice + lw.input_bits;
        }
        net->warm_layer(demand_bits, lr.total_s);
      }

      // --- network energy ---
      // ReSiPI gates gateways, not wavelengths: the broadcast keeps lit the
      // sub-bands of the most-provisioned active reader (each gateway
      // listens on wavelengths_per_gateway channels of the shared grid).
      const auto active_lambda = std::clamp<std::size_t>(
          gw * interposer.wavelengths_per_gateway(), 1,
          config_.photonic.total_wavelengths);
      result.ledger.charge_power_for(
          Category::kNetworkStatic,
          interposer.network_static_power_w(active_lambda, total_gw),
          lr.total_s);
      result.ledger.charge_energy(Category::kNetworkTransfer,
                                  interposer.transfer_energy_j(
                                      reads + writes));
      gateway_time_weight += static_cast<double>(total_gw) * lr.total_s;
    } else {
      // --- Electrical mesh interposer: weights striped, inputs replicated
      // to every assigned chiplet (no broadcast on a mesh), word-granular
      // request-response reads with a small MSHR pool, writes posted
      // through the shared memory port. Limited gateway buffering: the
      // transfer does not overlap compute (store-and-forward per layer).
      const double read_volume =
          static_cast<double>(lw.weight_bits) +
          static_cast<double>(lw.input_bits) * chiplets;
      const double read_bw = elec.layer_read_bandwidth_bps(
          a.chiplets_used, config_.electrical.average_hops);
      lr.read_s = read_volume / read_bw +
                  elec.read_round_trip_s(config_.electrical.average_hops);
      lr.write_s = static_cast<double>(writes) /
                   elec.effective_read_bandwidth_bps();
      lr.overhead_s = config_.layer_overhead_2p5d_s;
      lr.total_s = lr.read_s + lr.write_s + lr.compute_s + lr.overhead_s;

      result.ledger.charge_power_for(Category::kNetworkStatic,
                                     elec.static_power_w(), lr.total_s);
      result.ledger.charge_energy(
          Category::kNetworkTransfer,
          elec.transfer_energy_j(
              static_cast<std::uint64_t>(read_volume) + writes,
              config_.electrical.average_hops));
    }

    charge_compute(result.ledger, platform, group_power, a, lw.macs,
                   lr.total_s);
    result.ledger.charge_energy(
        Category::kMemoryHbmAccess,
        static_cast<double>(reads + writes) *
            config_.tech.compute.hbm_energy_per_bit_j);

    result.latency_s += lr.total_s;
    result.layers.push_back(lr);
  }

  result.ledger.charge_power_for(Category::kMemoryInterfaceStatic,
                                 config_.tech.compute.hbm_static_w,
                                 result.latency_s);
  if (siph) {
    // The net's controller executed every layer it exists for: real epochs
    // under cycle-simulated layers and warm_layer epochs under
    // fast-forwarded ones — a single continuous trajectory. Zero-window
    // plans (and pure analytical) have no net, so the estimator's totals
    // stand — which keeps all-window plans bit-identical to
    // kCycleAccurate and zero-window plans bit-identical to kAnalytical.
    const noc::ResipiController& resipi =
        net ? net->controller() : controller;
    result.resipi_reconfigurations = resipi.reconfiguration_count();
    result.resipi_energy_j = resipi.reconfiguration_energy_j();
    result.ledger.charge_energy(Category::kNetworkPcmReconfig,
                                result.resipi_energy_j);
    result.mean_active_gateways =
        result.latency_s > 0.0 ? gateway_time_weight / result.latency_s : 0.0;
  }
  if (sampled_siph) {
    result.correction_factor = comm_correction();
    result.overhead_correction = overhead_correction();
    result.correction_lo = result.correction_factor;
    result.correction_hi = result.correction_factor;
    if (ratio_count > 1) {
      // Normal-quantile band from the Welford moments of the observed
      // per-layer ratios, centered on the applied (ratio-of-sums)
      // correction.
      const double z =
          util::normal_quantile(0.5 + config_.fidelity.confidence / 2.0);
      const double se =
          std::sqrt(ratio_m2 / (static_cast<double>(ratio_count) *
                                static_cast<double>(ratio_count - 1)));
      result.correction_lo = result.correction_factor - z * se;
      result.correction_hi = result.correction_factor + z * se;
    }
  }

  result.traffic_bits = workload.total_traffic_bits();
  result.energy_j = result.ledger.total_energy_j(result.latency_s);
  result.average_power_w = result.energy_j / result.latency_s;
  result.epb_j_per_bit =
      result.energy_j / static_cast<double>(result.traffic_bits);
  return result;
}

}  // namespace optiplet::core
