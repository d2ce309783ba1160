#pragma once
/// \file system_simulator.hpp
/// Transaction-level full-system simulator (the paper's experiment engine).
///
/// For a (model, architecture) pair the simulator:
///   1. builds the platform (Table-1 chiplets or the monolithic die),
///   2. maps every compute layer to its affinity chiplet group,
///   3. walks the layers in execution order, computing per-layer compute
///      time, read/write communication time over the architecture's
///      interconnect model, ReSiPI gateway provisioning (SiPh), and
///      per-layer overheads,
///   4. charges every energy consumer into a power::EnergyLedger
///      (laser, rings, DAC/ADC, gateways, routers, HBM, controller),
///   5. reports average power, end-to-end latency, and energy-per-bit —
///      the three metrics of Fig. 7 and Table 3.
///
/// Communication time honors SystemConfig::fidelity: the analytical path
/// uses the closed-form interposer models; at Fidelity::kCycleAccurate the
/// SiPh transfers are injected into noc::PhotonicCycleNet and measured
/// cycle by cycle (ReSiPI epochs, PCM stalls, and reader-gateway
/// contention included). Fidelity::kSampled interleaves the two: a seeded
/// subset of layer windows (core::sampled_layer_mask) runs on the cycle
/// net while the rest fast-forward analytically, scaled by a calibrated
/// cycle/analytical correction factor whose confidence band lands in
/// RunResult — the Sniper-style sampling that makes cycle-quality sweeps
/// affordable.

#include <string>
#include <vector>

#include "accel/mapper.hpp"
#include "core/system_config.hpp"
#include "dnn/graph.hpp"
#include "dnn/workload.hpp"
#include "power/energy_ledger.hpp"

namespace optiplet::core {

/// Per-layer timing/provisioning breakdown.
struct LayerResult {
  std::size_t layer_index = 0;       ///< index into Model::layers()
  accel::MacKind group = accel::MacKind::kConv3;
  std::size_t chiplets_used = 1;
  double compute_s = 0.0;
  double read_s = 0.0;
  double write_s = 0.0;
  double overhead_s = 0.0;
  double total_s = 0.0;
  /// Active gateways per assigned chiplet (SiPh; 0 for other archs).
  std::size_t gateways_per_chiplet = 0;
};

/// Whole-inference result for one (model, architecture) pair.
struct RunResult {
  std::string model_name;
  accel::Architecture arch = accel::Architecture::kSiph2p5D;

  double latency_s = 0.0;
  double energy_j = 0.0;
  double average_power_w = 0.0;
  /// Useful bits moved per inference (weights + activations, identical
  /// across architectures for a given model — the EPB denominator).
  std::uint64_t traffic_bits = 0;
  double epb_j_per_bit = 0.0;

  power::EnergyLedger ledger;
  std::vector<LayerResult> layers;

  /// ReSiPI activity (SiPh only).
  std::uint64_t resipi_reconfigurations = 0;
  double resipi_energy_j = 0.0;
  double mean_active_gateways = 0.0;  ///< time-weighted, across all chiplets

  /// Sampled-fidelity stitching telemetry (Fidelity::kSampled on the SiPh
  /// architecture only; defaults otherwise). The correction factor is the
  /// ratio-of-sums of sampled cycle-vs-analytical communication times — a
  /// time-weighted estimate, so heavyweight layers dominate the
  /// calibration the same way they dominate the latency it corrects —
  /// applied to fast-forwarded layers; [lo, hi] is its
  /// FidelitySpec::confidence normal-quantile band over the per-layer
  /// ratio samples.
  std::size_t sampled_layers = 0;
  double correction_factor = 1.0;
  double correction_lo = 1.0;
  double correction_hi = 1.0;
  /// Ratio-of-sums of sampled cycle-vs-analytical layer overheads (the
  /// cycle net folds reconfiguration transients into measured transfer
  /// time, so its per-layer overhead is the bare barrier while the
  /// analytical model charges a half-epoch stall — this factor reconciles
  /// the two).
  double overhead_correction = 1.0;
};

/// The simulator. Stateless across runs; all state lives in the RunResult.
class SystemSimulator {
 public:
  explicit SystemSimulator(const SystemConfig& config);

  /// Simulate one inference of `model` on `arch`.
  [[nodiscard]] RunResult run(const dnn::Model& model,
                              accel::Architecture arch) const;

  [[nodiscard]] const SystemConfig& config() const { return config_; }

 private:
  RunResult run_monolithic(const dnn::Model& model) const;
  RunResult run_2p5d(const dnn::Model& model, accel::Architecture arch) const;

  /// Workload scaled to the configured batch size (weights stream once per
  /// batch; compute and activations scale with it).
  [[nodiscard]] dnn::Workload batched_workload(const dnn::Model& model) const;

  SystemConfig config_;
};

}  // namespace optiplet::core
