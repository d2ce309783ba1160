/// \file stack_bench.cpp
/// Host-speed benchmark of the simulator stack.
///
///   stack_bench --workload NAME --seed N --seconds S --trace 0|1
///               [--smoke] [--trace-out PATH]
///
/// --trace 0 measures the end-to-end metrics: after a warm-up repetition,
/// rounds of one timed repetition of the workload's timed section, cold
/// repetitions of its fixed set-up and reference passes (host_reference.hpp)
/// until S seconds have passed. --trace 1 is the separate traced run: spans
/// around every call the benchmark makes into a layer, layer probes on the
/// workload's own inputs, and the per-layer metrics derived from them.
/// --smoke runs a single round with a single cold set-up. Every scenario a run
/// simulates is one operation; it fails when it throws, breaks the drain
/// identity, offers another request count than its spec, or differs from
/// the same scenario's first run in any ServingMetrics bit.
///
/// The last stdout line is one JSON report: attempted/failed operations,
/// the metrics with their units, each scenario's fingerprint, and the
/// build's provenance. run.py builds this program, checks the
/// fingerprints against the values recorded for the default seed, and
/// prints the benchmark's result line.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "host_reference.hpp"
#include "layer_probes.hpp"
#include "obs/recorder.hpp"
#include "workloads.hpp"

namespace {

using namespace optiplet;
using namespace optiplet::perfbench;

/// Share of a run's host time spent on cold set-ups. They run in a burst
/// after every timed repetition, so they are spread over the whole run.
constexpr double kSetupShare = 0.15;
/// Share of each round's timed host time that its reference passes cover.
constexpr double kReferenceShare = 0.25;
/// Timed rounds per run, at least, even past --seconds.
constexpr std::size_t kMinReps = 3;
/// Rounds of plain, idle-recorder and traced runs in the traced run's obs
/// layer, at least, even past --seconds.
constexpr std::size_t kMinObsRounds = 3;
/// Host time each layer probe of the traced run spends, at least [s].
constexpr double kProbeBudgetS = 0.25;

/// Peak resident set of this process's address space [MB], from VmHWM.
/// getrusage's ru_maxrss is no use here: Linux carries it over exec, so
/// it would report the launching Python process's peak whenever that is
/// the larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1.0e6;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations attempted and failed, with the first failure messages, plus
/// each scenario's reference outcome (its first passing run).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Outcome> reference;
  std::map<std::string, std::uint64_t> passed;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 16) {
      errors.push_back(why);
    }
  }

  /// Check one run of every scenario of `prepared`, outcome i belonging to
  /// spec i. The first passing run of a scenario becomes its reference.
  void check_all(const std::vector<Outcome>& outcomes,
                 const Prepared& prepared, const char* what) {
    if (outcomes.size() != prepared.specs.size()) {
      throw std::logic_error("one outcome per scenario expected");
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      ++attempted;
      const Outcome& o = outcomes[i];
      const std::string problem =
          check(o, prepared.specs[i].serving->requests);
      if (!problem.empty()) {
        fail(std::string(what) + ": " + problem);
        continue;
      }
      const auto ref = std::find_if(
          reference.begin(), reference.end(),
          [&](const Outcome& r) { return r.label == o.label; });
      if (ref == reference.end()) {
        reference.push_back(o);
      } else if (digest(*ref) != digest(o)) {
        fail(std::string(what) + ": " + o.label +
             " differs from its first run");
        continue;
      }
      ++passed[o.label];
    }
  }
};

/// Run one repetition, counting each scenario as one operation.
bool checked_rep(const Workload& w, const Prepared& prepared, SpanTrace& trace,
                 Tally& tally, Rep& rep, const char* what,
                 obs::Recorder* recorder = nullptr) {
  try {
    rep = run_rep(w, prepared, trace, recorder);
  } catch (const std::exception& e) {
    for (std::size_t i = 0; i < prepared.specs.size(); ++i) {
      ++tally.attempted;
      tally.fail(std::string(what) + " threw: " + e.what());
    }
    return false;
  }
  tally.check_all(rep.outcomes, prepared, what);
  return true;
}

/// The end-to-end metrics. The first repetition warms the process up and
/// sets its peak RSS. Then each round runs one timed repetition, a burst of
/// cold set-ups and reference passes, so every repetition and burst has
/// reference passes on each side. Each is timed against the mean of the two
/// sides' median passes, and the medians of those ratios, at the
/// reference's nominal speed, are the reported times.
std::vector<Metric> measure(const Workload& w, const Args& args,
                            Tally& tally) {
  SpanTrace off(false, "");
  const auto start = Clock::now();
  const Prepared prepared = set_up(w, off);
  double setup_sum_s = seconds_since(start);
  std::size_t setups = 1;

  Rep warm_up;
  (void)checked_rep(w, prepared, off, tally, warm_up, "warm-up repetition");
  const double rss_mb = peak_rss_mb();

  // Reference passes covering kReferenceShare of `cover_s`, at least one;
  // returns their median.
  std::vector<double> ref_s;
  std::uint64_t checksum = 0;
  const auto reference = [&](double cover_s) {
    std::vector<double> passes;
    double sum_s = 0.0;
    do {
      const ReferencePass pass = run_reference();
      if (checksum == 0) {
        checksum = pass.checksum;
      } else if (pass.checksum != checksum) {
        throw std::runtime_error("the reference pass changed its outcome");
      }
      passes.push_back(pass.wall_s);
      sum_s += pass.wall_s;
    } while (sum_s < kReferenceShare * cover_s);
    ref_s.insert(ref_s.end(), passes.begin(), passes.end());
    return median(passes);
  };

  double before_s = reference(warm_up.wall_s);
  std::vector<double> rep_s;
  std::vector<double> rep_ratio;
  std::vector<double> burst_ratio;
  for (std::size_t round = 1;; ++round) {
    Rep r;
    const bool passed =
        checked_rep(w, prepared, off, tally, r, "timed repetition");
    std::vector<double> burst;
    double burst_sum_s = 0.0;
    do {
      const auto t0 = Clock::now();
      const Prepared cold = set_up(w, off);
      burst.push_back(seconds_since(t0));
      burst_sum_s += burst.back();
      setup_sum_s += burst.back();
    } while (!args.smoke && setup_sum_s < kSetupShare * seconds_since(start));
    setups += burst.size();
    const double after_s = reference(r.wall_s + burst_sum_s);
    const double ref_mid_s = 0.5 * (before_s + after_s);
    if (passed) {
      rep_s.push_back(r.wall_s);
      rep_ratio.push_back(r.wall_s / ref_mid_s);
    }
    burst_ratio.push_back(median(burst) / ref_mid_s);
    before_s = after_s;
    if (args.smoke ||
        (round >= kMinReps && seconds_since(start) >= args.seconds)) {
      break;
    }
  }
  const double median_s = median(rep_ratio) * kReferencePassS;
  const double setup_s = median(burst_ratio) * kReferencePassS;
  const double requests = static_cast<double>(requests_per_rep(prepared));
  const double scenarios = static_cast<double>(prepared.specs.size());
  std::fprintf(stderr,
               "%s: %zu timed repetitions of %.0f requests, host median "
               "%.4f s, %.4f s at reference speed; %zu set-ups, median "
               "burst %.6f s at reference speed; reference pass median "
               "%.4f s (nominal %.4f s); %.1f s\n",
               w.name.c_str(), rep_s.size(), requests, median(rep_s),
               median_s, setups, setup_s, median(ref_s), kReferencePassS,
               seconds_since(start));
  const auto list = [](const char* what, const std::vector<double>& values) {
    std::fprintf(stderr, "%s:", what);
    for (const double v : values) {
      std::fprintf(stderr, " %.5f", v);
    }
    std::fprintf(stderr, "\n");
  };
  list("repetitions [s]", rep_s);
  list("reference passes [s]", ref_s);
  list("repetition / reference", rep_ratio);
  list("set-up burst / reference", burst_ratio);
  return {{"requests_per_s", median_s > 0.0 ? requests / median_s : 0.0,
           "1/s"},
          {"scenarios_per_s", median_s > 0.0 ? scenarios / median_s : 0.0,
           "1/s"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", rss_mb, "MB"}};
}

void append_latencies(const serve::ServingReport& report,
                      std::vector<double>& pooled) {
  for (const std::vector<double>& tenant : report.tenant_latencies) {
    pooled.insert(pooled.end(), tenant.begin(), tenant.end());
  }
}

/// The traced run: the workload's set-up and timed section with a span at
/// every call into a layer, then each layer's metrics. A layer the
/// workload does not reach on its own is driven with the workload's
/// scenarios: direct serve::simulate calls for the sweep, a one-package
/// rack for cluster, a SweepRunner for engine. Each of those runs must
/// reproduce the workload's own outcome bit for bit.
class TracedRun {
 public:
  TracedRun(const Workload& w, const Args& args, Tally& tally)
      : w_(w),
        tally_(tally),
        trace_(true, w.name + ":" + std::to_string(args.seed)),
        budget_s_(args.smoke ? 0.01 : kProbeBudgetS),
        obs_budget_s_(args.smoke ? 0.0 : args.seconds),
        obs_rounds_(args.smoke ? 1 : kMinObsRounds) {}

  std::vector<Metric> run(const std::string& trace_out) {
    {
      const auto root = trace_.span("run");
      {
        const auto span = trace_.span("setup");
        prepared_ = set_up(w_, trace_);
      }
      plans_ = plan_oracles(w_, prepared_, trace_);
      // The timed section, spanned at its entry point.
      if (!checked_rep(w_, prepared_, trace_, tally_, rep_, "traced run")) {
        throw std::runtime_error("the workload failed: " +
                                 tally_.errors.back());
      }
      serve_layer();
      obs_layer();
      cluster_layer();
      engine_layer();
      direct_layers();
    }
    if (!trace_out.empty() && !trace_.write_json(trace_out)) {
      throw std::runtime_error("cannot write " + trace_out);
    }
    return metrics_;
  }

 private:
  void add(const char* name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  const std::string& label(std::size_t i) const {
    return rep_.outcomes[i].label;
  }

  /// serve: the event loop and the oracle. On the rack serve::simulate
  /// runs once per package inside cluster::simulate. Each simulated
  /// scenario's oracle work is priced again right after it ran, through a
  /// fresh oracle and as many distinct points as the run priced; the loop
  /// time is the difference.
  void serve_layer() {
    std::vector<serve::ServingMetrics> served;
    std::vector<const OraclePlan*> served_plans;
    for (const OraclePlan& plan : plans_) {
      if (!plan.balancer_weight) {
        served_plans.push_back(&plan);
      }
    }
    if (w_.grid) {
      // The warm-up is nearly all of a sampled scenario, and only
      // back-to-back pairs keep the loop time, their difference, above the
      // host drift.
      std::vector<Outcome> outcomes;
      for (std::size_t i = 0; i < prepared_.specs.size(); ++i) {
        const engine::ScenarioSpec& spec = prepared_.specs[i];
        direct_.push_back(serve::make_serving_config(
            scenario_config(w_, spec), w_.arch, *spec.serving));
        serve::ServingReport report;
        {
          const auto span = trace_.span("serve.simulate");
          report = serve::simulate(direct_.back());
        }
        warm_like_run(*served_plans.at(i), w_.arch,
                      report.metrics.service_cache_misses, trace_);
        served.push_back(report.metrics);
        pooled_.emplace_back();
        append_latencies(report, pooled_.back());
        outcomes.push_back({label(i), report.metrics, {}});
      }
      tally_.check_all(outcomes, prepared_, "direct serve::simulate");
      simulate_s_ = trace_.total_s("serve.simulate");
    } else if (rep_.rack) {
      pooled_.emplace_back();
      for (const cluster::PackageBreakdown& package : rep_.rack->packages) {
        if (package.active) {
          warm_like_run(*served_plans.at(served.size()), w_.arch,
                        package.report.metrics.service_cache_misses, trace_);
          served.push_back(package.report.metrics);
          simulate_s_ += package.report.wall_s;
          append_latencies(package.report, pooled_.back());
        }
      }
    } else {
      for (const serve::ServingReport& report : rep_.serving) {
        warm_like_run(*served_plans.at(served.size()), w_.arch,
                      report.metrics.service_cache_misses, trace_);
        served.push_back(report.metrics);
        pooled_.emplace_back();
        append_latencies(report, pooled_.back());
      }
      simulate_s_ = trace_.total_s("serve.simulate");
    }
    if (served.size() != served_plans.size()) {
      throw std::logic_error("one oracle plan per simulated scenario expected");
    }

    const double warm_s = trace_.total_s("serve.oracle_warm");
    const double loop_s = simulate_s_ - warm_s;
    double events = 0.0;
    double queue_peak = 0.0;
    double offered = 0.0;
    double tokens = 0.0;
    double hits = 0.0;
    double misses = 0.0;
    for (const serve::ServingMetrics& m : served) {
      events += static_cast<double>(m.sim_events);
      queue_peak =
          std::max(queue_peak, static_cast<double>(m.sim_event_queue_peak));
      offered += static_cast<double>(m.offered);
      tokens += m.decode_tps * m.makespan_s;
      hits += static_cast<double>(m.service_cache_hits);
      misses += static_cast<double>(m.service_cache_misses);
    }
    add("serve.simulate_s", simulate_s_, "s");
    add("serve.loop_s", loop_s, "s");
    add("serve.oracle_warm_s", warm_s, "s");
    add("serve.events", events, "count");
    add("serve.queue_peak", queue_peak, "count");
    add("serve.events_per_request", events / offered, "events/req");
    add("serve.events_per_s", events / loop_s, "1/s");
    add("serve.decode_tokens_per_s", tokens / loop_s, "1/s");
    add("serve.oracle_points", misses, "count");
    add("serve.oracle_hit_ratio", hits / (hits + misses), "ratio");
  }

  /// Host time of one checked run of the timed section, spanned on `trace`
  /// and with `recorder` attached. The sweep's scenarios run through
  /// serve::simulate directly, because SweepRunner attaches no recorder.
  double timed(SpanTrace& trace, obs::Recorder* recorder, const char* what) {
    if (!w_.grid) {
      Rep rep;
      if (!checked_rep(w_, prepared_, trace, tally_, rep, what, recorder)) {
        throw std::runtime_error("the workload failed: " +
                                 tally_.errors.back());
      }
      return rep.wall_s;
    }
    std::vector<Outcome> outcomes;
    const auto t0 = Clock::now();
    for (serve::ServingConfig config : direct_) {
      config.recorder = recorder;
      serve::ServingReport report;
      {
        const auto span = trace.span("serve.simulate");
        report = serve::simulate(config);
      }
      outcomes.push_back({label(outcomes.size()), report.metrics, {}});
    }
    const double wall_s = seconds_since(t0);
    tally_.check_all(outcomes, prepared_, what);
    return wall_s;
  }

  /// obs: an attached recorder that collects nothing must cost nothing,
  /// and so must the benchmark's spans. Each round runs the timed section
  /// plain, with an idle recorder and traced, so each ratio compares
  /// neighbours that saw nearly the same host speed; the order rotates
  /// from round to round, and the medians over the rounds are reported.
  void obs_layer() {
    obs::RecorderOptions options;
    options.trace = false;
    options.metrics = false;
    obs::Recorder idle(options);
    // Spans of the traced runs go to a scratch trace, so the layer totals
    // of trace_ keep covering a single run.
    SpanTrace scratch(true, "");
    struct Kind {
      const char* span;
      SpanTrace* trace;
      obs::Recorder* recorder;
    };
    const Kind kinds[] = {{"obs.plain", &off_, nullptr},
                          {"obs.idle_recorder", &off_, &idle},
                          {"obs.traced", &scratch, nullptr}};
    std::vector<double> idle_ratio;
    std::vector<double> trace_ratio;
    const auto start = Clock::now();
    do {
      double wall_s[3] = {};
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t i = (idle_ratio.size() + k) % 3;
        const auto span = trace_.span(kinds[i].span);
        wall_s[i] = timed(*kinds[i].trace, kinds[i].recorder, kinds[i].span);
      }
      idle_ratio.push_back(wall_s[0] / wall_s[1]);
      trace_ratio.push_back(wall_s[2] / wall_s[0]);
    } while (idle_ratio.size() < obs_rounds_ ||
             seconds_since(start) < obs_budget_s_);
    add("obs.idle_recorder_ratio", median(idle_ratio), "ratio");
    add("obs.trace_overhead", median(trace_ratio), "ratio");
  }

  /// cluster: the rack itself, or each scenario as a one-package rack. Self
  /// time is the time outside the package simulations; the rack's packages
  /// run in parallel on its workers, so their summed wall time is divided
  /// by the workers that ran them.
  void cluster_layer() {
    double self_s = 0.0;
    double transfers = 0.0;
    if (rep_.rack) {
      double package_s = 0.0;
      std::size_t active = 0;
      for (const cluster::PackageBreakdown& package : rep_.rack->packages) {
        package_s += package.active ? package.report.wall_s : 0.0;
        active += package.active ? 1 : 0;
      }
      self_s = trace_.total_s("cluster.simulate") -
               package_s / static_cast<double>(std::min(w_.threads, active));
      transfers = static_cast<double>(rep_.rack->metrics.transfers);
    } else {
      std::vector<Outcome> outcomes;
      for (std::size_t i = 0; i < prepared_.specs.size(); ++i) {
        const engine::ScenarioSpec& spec = prepared_.specs[i];
        cluster::ClusterConfig config;
        config.system = scenario_config(w_, spec);
        config.arch = w_.arch;
        config.serving = *spec.serving;
        config.threads = 1;
        const auto t0 = Clock::now();
        cluster::ClusterReport report;
        {
          const auto span = trace_.span("cluster.simulate");
          report = cluster::simulate(config);
        }
        self_s += seconds_since(t0) - report.packages.front().report.wall_s;
        transfers += static_cast<double>(report.metrics.transfers);
        outcomes.push_back({label(i), report.metrics.rack, {}});
      }
      tally_.check_all(outcomes, prepared_, "one-package rack");
    }
    add("cluster.simulate_s", trace_.total_s("cluster.simulate"), "s");
    add("cluster.self_s", self_s, "s");
    add("cluster.quantile_s", probe_quantiles(pooled_, trace_, budget_s_),
        "s");
    add("cluster.route_per_s", probe_route(w_, prepared_, trace_, budget_s_),
        "1/s");
    add("cluster.transfers", transfers, "count");
  }

  /// engine: the sweep itself, or the workload's scenario through a
  /// SweepRunner at the workload's thread count.
  void engine_layer() {
    std::vector<engine::ScenarioResult> results = rep_.sweep;
    if (!w_.grid) {
      {
        const auto span = trace_.span("engine.sweep");
        engine::SweepRunner runner(w_.base, sweep_options(w_));
        results = runner.run(prepared_.specs);
      }
      std::vector<Outcome> outcomes;
      for (const engine::ScenarioResult& result : results) {
        outcomes.push_back(
            {label(outcomes.size()), *result.serving, result.cluster});
      }
      tally_.check_all(outcomes, prepared_, "SweepRunner");
    }
    const double sweep_s = trace_.total_s("engine.sweep");
    double eval_sum_s = 0.0;
    double eval_max_s = 0.0;
    for (const engine::ScenarioResult& result : results) {
      eval_sum_s += result.eval_wall_s;
      eval_max_s = std::max(eval_max_s, result.eval_wall_s);
    }
    add("engine.sweep_s", sweep_s, "s");
    add("engine.eval_sum_s", eval_sum_s, "s");
    add("engine.parallel_efficiency",
        eval_sum_s / (static_cast<double>(w_.threads) * sweep_s), "ratio");
    add("engine.scenario_eval_max_s", eval_max_s, "s");
  }

  /// core, noc and photonics, called directly on the workload's inputs.
  void direct_layers() {
    const CoreProbe core = probe_core(plans_, w_.arch, trace_, budget_s_);
    add("core.run_s", core.run_s, "s");
    add("core.runs", static_cast<double>(core.runs), "count");
    const serve::ServiceTimeOracle::Tenant& tenant =
        plans_.front().tenants.front();
    add("noc.cycle_net_cycles_per_s",
        probe_cycle_net(tenant, trace_, budget_s_), "1/s");
    add("noc.interposer_evals_per_s",
        probe_interposer(tenant, trace_, budget_s_), "1/s");
    add("photonics.link_budget_evals_per_s",
        probe_link_budget(w_, prepared_, trace_, budget_s_), "1/s");
  }

  const Workload& w_;
  Tally& tally_;
  SpanTrace trace_;
  SpanTrace off_{false, ""};
  double budget_s_;
  /// The obs layer's rounds last this long [s], and at least obs_rounds_.
  double obs_budget_s_;
  std::size_t obs_rounds_;
  Prepared prepared_;
  std::vector<OraclePlan> plans_;
  Rep rep_;
  /// Sweep only: each scenario's config for the direct serve calls.
  std::vector<serve::ServingConfig> direct_;
  /// Latency samples each rack merge would pool, one per scenario.
  std::vector<std::vector<double>> pooled_;
  double simulate_s_ = 0.0;
  std::vector<Metric> metrics_;
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void print_report(const Args& args, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"workload\": " + json_string(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"errors\": [";
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(tally.errors[i]);
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  // Fingerprints of each scenario's reference run, and how many runs of
  // it passed (all bit-identical to the reference).
  out += "}, \"fingerprints\": {";
  for (std::size_t i = 0; i < tally.reference.size(); ++i) {
    const Outcome& o = tally.reference[i];
    const serve::ServingMetrics& m = o.metrics;
    out += (i == 0 ? "" : ", ") + json_string(o.label) +
           ": {\"runs\": " + std::to_string(tally.passed.at(o.label)) +
           ", \"offered\": " + std::to_string(m.offered) +
           ", \"completed\": " + std::to_string(m.completed) +
           ", \"shed\": " + std::to_string(m.shed) +
           ", \"abandoned\": " + std::to_string(m.abandoned) +
           ", \"sim_events\": " + std::to_string(m.sim_events) +
           ", \"p99_s\": " + json_number(m.p99_s) +
           ", \"energy_per_request_j\": " +
           json_number(m.energy_per_request_j);
    if (o.rack) {
      out += ", \"transfers\": " + std::to_string(o.rack->transfers);
    }
    out += "}";
  }
  out += "}, \"provenance\": {\"compiler\": " +
         json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Workload w = make_workload(args.workload, args.seed);
    Tally tally;
    const std::vector<Metric> metrics =
        args.trace ? TracedRun(w, args, tally).run(args.trace_out)
                   : measure(w, args, tally);
    print_report(args, tally, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stack_bench: %s\n", e.what());
    return 2;
  }
}
