/// \file optiplet_tracegen.cpp
/// Synthetic arrival-trace exporter: generate diurnal, bursty, or MMPP
/// on/off load shapes as CSV traces in the exact `arrival_s[,tenant]`
/// format `optiplet_serve --trace` (serve::load_arrival_trace) replays —
/// the interchange contract documented in docs/serving-model.md.
///
/// Examples:
///   optiplet_tracegen --profile diurnal --rate 20000 --duration 0.5
///   optiplet_tracegen --profile bursts --rate 5000 --burst-mult 10
///       --tenants LeNet5,VGG16 --out burst_trace.csv
///   optiplet_tracegen --profile mmpp --on-rate 40000 --off-rate 0
///       --duration 1 --seed 7
///   optiplet_tracegen --rate 100 --tenants TinyGPT --prefill-tokens 256
///       --decode-tokens 64 --token-spread 0.5

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli_support.hpp"
#include "serve/tracegen.hpp"

namespace {

using namespace optiplet;
using cli::split;

}  // namespace

int main(int argc, char** argv) {
  serve::TraceGenSpec spec;
  std::string out_path = "trace.csv";
  cli::Logger log;

  cli::OptionSet options_set(
      "optiplet_tracegen",
      R"(optiplet_tracegen — synthetic arrival-trace exporter

Writes a CSV arrival trace (columns arrival_s[,tenant]) that
optiplet_serve --trace replays bit-identically. Three load shapes, all
seeded non-homogeneous Poisson processes (generated by thinning):

  diurnal   rate follows base*(1 + amplitude*sin(2*pi*t/period))
  bursts    Poisson floor plus burst episodes at base*multiplier
  mmpp      two-state on/off Markov-modulated Poisson process)");
  options_set
      .add("--profile", "NAME",
           util::choices<serve::TraceProfile>("|") + " (default diurnal)",
           cli::store_choice(spec.profile, "profile"))
      .add("--rate", "R", "base rate [requests/s] (default 1000)",
           cli::store(spec.base_rps, "value for --rate"))
      .add("--duration", "S", "trace length [s] (default 1)",
           cli::store(spec.duration_s, "value for --duration"))
      .add("--seed", "S", "generator seed (default 42)",
           cli::store(spec.seed, "seed"))
      .add("--tenants", "NAMES",
           "comma list of tenant labels assigned uniformly at\n"
           "random per event (default: none — unlabeled rows\n"
           "feed every tenant on replay)",
           [&spec](const std::string& value) -> std::optional<std::string> {
             spec.tenants = split(value, ',');
             for (const auto& name : spec.tenants) {
               if (name.empty()) {
                 return "empty tenant label in --tenants";
               }
             }
             return std::nullopt;
           })
      .add("--prefill-tokens", "N",
           "mean prompt length [tokens]; positive values emit\n"
           "per-event prefill/decode token columns for\n"
           "variable-length transformer replay (default 0 =\n"
           "fixed-shape rows, byte-identical legacy schema)",
           cli::store(spec.prefill_tokens, "prefill tokens"))
      .add("--decode-tokens", "N",
           "mean generated length [tokens]; 0 = pure prefill\n"
           "(default 0; requires --prefill-tokens)",
           cli::store(spec.decode_tokens, "decode tokens"))
      .add("--token-spread", "X",
           "relative half-width of the per-event uniform token\n"
           "draw, in [0,1); 0 = exact means (default 0)",
           cli::store(spec.token_spread, "token spread",
                      cli::Range::kFraction))
      .add("--out", "FILE", "output CSV path (default trace.csv)",
           cli::store_string(out_path))
      .add_text("\ndiurnal:")
      .add("--period", "S", "sinusoid period [s] (default: the duration)",
           cli::store(spec.period_s, "value for --period"))
      .add("--amplitude", "A", "relative swing in [0,1] (default 0.8)",
           cli::store(spec.amplitude, "value for --amplitude"))
      .add_text("\nbursts:")
      .add("--burst-mult", "M", "in-burst rate multiplier >= 1 (default 8)",
           cli::store(spec.burst_multiplier, "value for --burst-mult"))
      .add("--burst-gap", "S",
           "mean gap between burst starts [s] (default dur/10)",
           cli::store(spec.burst_gap_s, "value for --burst-gap"))
      .add("--burst-len", "S", "mean burst length [s] (default dur/50)",
           cli::store(spec.burst_len_s, "value for --burst-len"))
      .add_text("\nmmpp:")
      .add("--on-rate", "R",
           "on-state rate [requests/s] (default 2*rate; 0 is\n"
           "honored: silent on periods)",
           cli::store(spec.on_rps, "value for --on-rate"))
      .add("--off-rate", "R",
           "off-state rate [requests/s] (default rate/10; 0 is\n"
           "honored: silent off periods)",
           cli::store(spec.off_rps, "value for --off-rate"))
      .add("--on-s", "S", "mean on sojourn [s] (default dur/10)",
           cli::store(spec.on_s, "value for --on-s"))
      .add("--off-s", "S", "mean off sojourn [s] (default dur/10)",
           cli::store(spec.off_s, "value for --off-s"));
  cli::add_log_flags(options_set, log)
      .set_epilog(
          "Value flags also accept the --flag=value spelling.");
  if (const auto exit_code = options_set.parse(argc, argv)) {
    return *exit_code;
  }

  std::vector<serve::TraceEvent> events;
  try {
    events = serve::generate_trace(spec);
  } catch (const std::exception& e) {
    return options_set.fail(std::string("trace generation failed: ") +
                            e.what());
  }
  if (!serve::write_arrival_trace(out_path, events)) {
    return options_set.fail("cannot write " + out_path);
  }
  const double mean_rps =
      spec.duration_s > 0.0
          ? static_cast<double>(events.size()) / spec.duration_s
          : 0.0;
  log.result("%zu arrivals over %g s (%s profile, mean %.0f r/s%s) -> %s\n",
             events.size(), spec.duration_s, serve::to_string(spec.profile),
             mean_rps, spec.tenants.empty() ? "" : ", labeled",
             out_path.c_str());
  return 0;
}
