/// \file quickstart.cpp
/// Smallest end-to-end use of the library: build the default Table-1
/// platform, run ResNet50 on all three architectures, print the summary.
///
///   $ ./examples/quickstart

#include <cstdio>

#include "core/system_simulator.hpp"
#include "dnn/zoo.hpp"
#include "util/table.hpp"

int main() {
  using namespace optiplet;

  // 1. The default configuration reproduces Table 1 of the paper.
  const core::SystemConfig config = core::default_system_config();
  const core::SystemSimulator simulator(config);

  // 2. Pick a workload from the Table-2 model zoo (or build your own with
  //    dnn::GraphBuilder — see examples/custom_model.cpp).
  const dnn::Model model = dnn::zoo::make_resnet50();
  std::printf("Model: %s — %zu conv, %zu fc, %s parameters\n\n",
              model.name().c_str(), model.conv_layer_count(),
              model.fc_layer_count(),
              util::format_grouped(model.total_params()).c_str());

  // 3. Run one inference on each architecture.
  util::TextTable t({"Architecture", "Latency (ms)", "Avg power (W)",
                     "Energy (mJ)", "EPB (pJ/bit)"});
  for (const auto arch : {accel::Architecture::kMonolithicCrossLight,
                          accel::Architecture::kElec2p5D,
                          accel::Architecture::kSiph2p5D}) {
    const core::RunResult r = simulator.run(model, arch);
    t.add_row({accel::to_string(arch),
               util::format_fixed(r.latency_s * 1e3, 3),
               util::format_fixed(r.average_power_w, 2),
               util::format_fixed(r.energy_j * 1e3, 2),
               util::format_fixed(r.epb_j_per_bit * 1e12, 1)});
  }
  std::fputs(t.render().c_str(), stdout);

  // 4. Inspect the energy breakdown of the photonic run.
  const core::RunResult siph =
      simulator.run(model, accel::Architecture::kSiph2p5D);
  std::printf("\n2.5D-SiPh energy breakdown:\n");
  for (const auto& [category, entry] : siph.ledger.entries()) {
    std::printf("  %-24s %8.3f mJ\n", category, entry.dynamic_energy_j * 1e3);
  }
  std::printf("\nReSiPI: %llu gateway reconfigurations, %.1f active "
              "gateways on average (of %zu)\n",
              static_cast<unsigned long long>(siph.resipi_reconfigurations),
              siph.mean_active_gateways, std::size_t{32});
  return 0;
}
