#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "cluster/cluster_scheduler.hpp"
#include "dnn/registry.hpp"

namespace optiplet::perfbench {

namespace {

/// The lone/rack scenario as a ScenarioSpec on the base interposer shape.
engine::ScenarioSpec serving_spec(const Workload& w) {
  engine::ScenarioSpec spec;
  spec.model = w.serving.tenant_mix;
  spec.arch = w.arch;
  spec.wavelengths = w.base.photonic.total_wavelengths;
  spec.gateways_per_chiplet = w.base.photonic.gateways_per_chiplet;
  spec.modulation = w.base.photonic.modulation;
  spec.fidelity = w.base.fidelity;
  spec.serving = w.serving;
  spec.cluster = w.rack;
  return spec;
}

/// Label of one sweep scenario ("mix/wl16/size").
std::string scenario_label(const engine::ScenarioSpec& spec) {
  return spec.model + "/wl" + std::to_string(spec.wavelengths) + "/" +
         serve::to_string(spec.serving->policy);
}

/// Every point `plan`'s tenants can price at batch size `batch`: a
/// fixed-shape tenant's batch run (and its layer schedule when
/// layer-granular); a transformer tenant's prefill at every prompt length
/// and decode step at every KV length the uniform token draw admits.
std::vector<OraclePlan::Point> batch_points(const OraclePlan& plan,
                                            unsigned batch) {
  const serve::ServingSpec& spec = plan.spec;
  std::vector<OraclePlan::Point> points;
  for (std::size_t t = 0; t < plan.tenants.size(); ++t) {
    if (!plan.tenants[t].transformer || spec.prefill_tokens == 0) {
      points.push_back({t, Lookup::kBatch, batch, 0});
      if (spec.pipeline == serve::PipelineMode::kLayerGranular) {
        points.push_back({t, Lookup::kLayerSchedule, batch, 0});
      }
      continue;
    }
    const auto spread_of = [&](std::uint32_t mean) {
      const double lo = std::round(mean * (1.0 - spec.token_spread));
      const double hi = std::round(mean * (1.0 + spec.token_spread));
      return std::pair<std::uint32_t, std::uint32_t>(
          static_cast<std::uint32_t>(std::max(lo, 1.0)),
          static_cast<std::uint32_t>(std::max(hi, 1.0)));
    };
    const auto [p_lo, p_hi] = spread_of(spec.prefill_tokens);
    for (std::uint32_t p = p_lo; p <= p_hi; ++p) {
      points.push_back({t, Lookup::kPrefill, batch, p});
    }
    if (spec.decode_tokens == 0) {
      continue;
    }
    // Decode steps attend from the shortest prompt to the longest context.
    const std::uint32_t kv_hi =
        p_hi + spread_of(spec.decode_tokens).second - 1;
    for (std::uint32_t kv = p_lo; kv <= kv_hi; ++kv) {
      points.push_back({t, Lookup::kDecode, batch, kv});
    }
  }
  return points;
}

OraclePlan make_plan(const core::SystemConfig& cfg, accel::Architecture arch,
                     const std::vector<std::string>& models,
                     const serve::ServingSpec& spec, SpanTrace& trace) {
  OraclePlan plan;
  {
    const auto span = trace.span("serve.make_colocated_setup");
    plan.tenants =
        serve::make_colocated_setup(cfg, arch, models).oracle_tenants;
  }
  plan.spec = spec;
  plan.points = batch_points(plan, 1);
  const bool batched = spec.policy == serve::BatchPolicy::kFixedSize ||
                       spec.policy == serve::BatchPolicy::kDeadline;
  if (batched && spec.max_batch > 1) {
    for (const OraclePlan::Point& p : batch_points(plan, spec.max_batch)) {
      plan.points.push_back(p);
    }
  }
  return plan;
}

void price(serve::ServiceTimeOracle& oracle, const OraclePlan::Point& p) {
  switch (p.lookup) {
    case Lookup::kBatch:
      (void)oracle.batch_run(p.tenant, p.batch);
      break;
    case Lookup::kLayerSchedule:
      (void)oracle.layer_schedule(p.tenant, p.batch);
      break;
    case Lookup::kPrefill:
      (void)oracle.prefill_run(p.tenant, p.batch, p.tokens);
      break;
    case Lookup::kDecode:
      (void)oracle.decode_run(p.tenant, p.batch, p.tokens);
      break;
  }
}

template <typename T>
void mix(std::uint64_t& h, T value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (bits >> (8 * byte)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

template <typename... T>
std::uint64_t fnv(const T&... fields) {
  std::uint64_t h = 14695981039346656037ULL;
  (mix(h, fields), ...);
  return h;
}

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

core::SystemConfig scenario_config(const Workload& w,
                                   const engine::ScenarioSpec& spec) {
  core::SystemConfig config = w.base;
  spec.apply(config);
  return config;
}

// Request counts are per repetition. Repetitions of 0.15 to 0.4 s on the
// lone and rack workloads let each one be timed against reference passes
// run just before and after it (see README.md, Noise).
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.base = core::default_system_config();
  serve::ServingSpec& s = w.serving;
  s.seed = seed;
  if (name == "pipeline_open") {
    // Two deep CNNs sharing one package, layer-pipelined at 0.75 pool
    // utilization: ~77 events per request, so the event kernel dominates.
    s.tenant_mix = "ResNet50+DenseNet121";
    s.arrival_rps = 1000.0;
    s.requests = 10000;
    s.policy = serve::BatchPolicy::kNone;
    s.pipeline = serve::PipelineMode::kLayerGranular;
  } else if (name == "rack_batched") {
    // Small CNNs batched on a 4-package rack: ~1.1 events per request, so
    // the serial front end and the rack merge dominate.
    s.tenant_mix = "LeNet5+MobileNetV2";
    s.arrival_rps = 24000.0;
    s.requests = 250000;
    s.policy = serve::BatchPolicy::kFixedSize;
    s.max_batch = 8;
    cluster::ClusterSpec rack;
    rack.packages = 4;
    rack.replication = 4;
    rack.balancer = cluster::BalancerPolicy::kLeastLoaded;
    w.rack = rack;
    w.threads = 2;
  } else if (name == "sweep_sampled") {
    // 24 short serving scenarios at sampled fidelity: the oracle's cycle
    // net windows dominate and the event loop barely runs.
    engine::ScenarioGrid grid;
    grid.tenant_mixes = {"DenseNet121", "MobileNetV2", "ResNet50",
                         "DenseNet121+MobileNetV2"};
    grid.wavelengths = {16, 32, 64};
    grid.batch_policies = {serve::BatchPolicy::kNone,
                           serve::BatchPolicy::kFixedSize};
    core::FidelitySpec sampled(core::Fidelity::kSampled);
    sampled.windows = 8;
    sampled.seed = 3;
    grid.fidelities = {sampled};
    grid.architectures = {w.arch};
    grid.serving_defaults.requests = 2000;
    grid.serving_defaults.arrival_rps = 300.0;
    grid.serving_defaults.seed = seed;
    w.grid = grid;
    w.threads = 2;
  } else if (name == "decode_closed") {
    // Token-level continuous batching of a small transformer under a
    // saturating closed loop: ~5.9 events and ~4.9 phase lookups per
    // request over a few hundred distinct prefill/decode points.
    s.tenant_mix = "TinyGPT";
    s.source = serve::ArrivalSource::kClosedLoop;
    s.users = 32;
    s.think_s = 1.0e-3;
    s.policy = serve::BatchPolicy::kContinuous;
    s.max_batch = 16;
    s.prefill_tokens = 64;
    s.decode_tokens = 64;
    s.token_spread = 0.5;
    s.requests = 100000;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Prepared set_up(const Workload& w, SpanTrace& trace) {
  Prepared prepared;
  if (w.grid) {
    {
      const auto span = trace.span("engine.expand");
      prepared.specs = w.grid->expand(w.base);
    }
    {
      const auto span = trace.span("engine.feasible");
      for (const engine::ScenarioSpec& spec : prepared.specs) {
        if (!engine::feasible(spec, w.base)) {
          throw std::runtime_error("infeasible sweep spec: " + spec.key());
        }
      }
    }
    const auto span = trace.span("engine.runner");
    const engine::SweepRunner runner(w.base, sweep_options(w));
  } else {
    prepared.specs = {serving_spec(w)};
  }

  for (const engine::ScenarioSpec& spec : prepared.specs) {
    {
      const auto span = trace.span("dnn.lookup");
      for (const std::string& model : spec.serving->tenants()) {
        (void)dnn::ModelRegistry::instance().at(model);
      }
    }
    // The rack and the sweep resolve their serving configs again inside
    // their entry points; resolving them here times that set-up.
    const core::SystemConfig cfg = scenario_config(w, spec);
    const auto span = trace.span("serve.make_serving_config");
    serve::ServingConfig config =
        serve::make_serving_config(cfg, w.arch, *spec.serving);
    if (spec.cluster) {
      prepared.rack = cluster::ClusterConfig{cfg, w.arch, *spec.serving,
                                             *spec.cluster, w.threads};
    } else if (!w.grid) {
      prepared.serving.push_back(std::move(config));
    }
  }
  const std::vector<OraclePlan> plans = plan_oracles(w, prepared, trace);
  // The sweep's oracle points run at sampled fidelity and are the bulk of
  // its measured work, so its set-up stops at the co-location.
  if (!w.grid) {
    for (const OraclePlan& plan : plans) {
      warm(plan, w.arch, trace);
    }
  }
  return prepared;
}

std::vector<OraclePlan> plan_oracles(const Workload& w,
                                     const Prepared& prepared,
                                     SpanTrace& trace) {
  std::vector<OraclePlan> plans;
  for (const engine::ScenarioSpec& spec : prepared.specs) {
    const core::SystemConfig cfg = scenario_config(w, spec);
    const std::vector<std::string> models = spec.serving->tenants();
    if (!spec.cluster) {
      plans.push_back(make_plan(cfg, w.arch, models, *spec.serving, trace));
      continue;
    }
    cluster::Placement placement;
    {
      const auto span = trace.span("cluster.place_tenants");
      placement = cluster::place_tenants(
          *spec.cluster, cfg, w.arch, models,
          std::vector<double>(models.size(), 1.0));
    }
    for (const auto& hosted : placement.package_tenants) {
      if (hosted.empty()) {
        continue;
      }
      std::vector<std::string> names;
      for (const std::size_t t : hosted) {
        names.push_back(models[t]);
      }
      plans.push_back(make_plan(cfg, w.arch, names, *spec.serving, trace));
    }
    // The balancer weighs each model by its solo batch-1 service time.
    serve::ServingSpec solo = *spec.serving;
    solo.policy = serve::BatchPolicy::kNone;
    solo.pipeline = serve::PipelineMode::kBatchGranular;
    for (const std::string& model :
         std::set<std::string>(models.begin(), models.end())) {
      plans.push_back(make_plan(cfg, w.arch, {model}, solo, trace));
      plans.back().balancer_weight = true;
    }
  }
  return plans;
}

void warm(const OraclePlan& plan, accel::Architecture arch,
          SpanTrace& trace) {
  const auto span = trace.span("setup.oracle_warm");
  serve::ServiceTimeOracle oracle(plan.tenants, arch);
  for (const OraclePlan::Point& p : plan.points) {
    price(oracle, p);
  }
}

void warm_like_run(const OraclePlan& plan, accel::Architecture arch,
                   std::uint64_t run_points, SpanTrace& trace) {
  serve::ServiceTimeOracle oracle(plan.tenants, arch);
  {
    const auto span = trace.span("serve.oracle_warm");
    for (const OraclePlan::Point& p : plan.points) {
      price(oracle, p);
    }
    const unsigned top = plan.spec.policy == serve::BatchPolicy::kNone
                             ? 1
                             : plan.spec.max_batch;
    for (unsigned batch = 2;
         batch <= top && oracle.cache_misses() < run_points; ++batch) {
      for (const OraclePlan::Point& p : batch_points(plan, batch)) {
        if (oracle.cache_misses() == run_points) {
          break;
        }
        price(oracle, p);
      }
    }
  }
  if (oracle.cache_misses() != run_points) {
    throw std::runtime_error(
        "the oracle warm-up priced " + std::to_string(oracle.cache_misses()) +
        " points where the run priced " + std::to_string(run_points));
  }
}

Rep run_rep(const Workload& w, const Prepared& prepared, SpanTrace& trace,
            obs::Recorder* recorder) {
  Rep rep;
  const auto t0 = Clock::now();
  if (w.grid) {
    const auto span = trace.span("engine.sweep");
    engine::SweepRunner runner(w.base, sweep_options(w));
    rep.sweep = runner.run(prepared.specs);
  } else if (prepared.rack) {
    cluster::ClusterConfig config = *prepared.rack;
    config.recorder = recorder;
    const auto span = trace.span("cluster.simulate");
    rep.rack = cluster::simulate(config);
  } else {
    for (serve::ServingConfig config : prepared.serving) {
      config.recorder = recorder;
      const auto span = trace.span("serve.simulate");
      rep.serving.push_back(serve::simulate(config));
    }
  }
  rep.wall_s = seconds_since(t0);

  for (const engine::ScenarioResult& result : rep.sweep) {
    rep.outcomes.push_back({scenario_label(result.spec), *result.serving, {}});
  }
  if (rep.rack) {
    rep.outcomes.push_back({w.name, rep.rack->metrics.rack, rep.rack->metrics});
  }
  for (const serve::ServingReport& report : rep.serving) {
    rep.outcomes.push_back({w.name, report.metrics, {}});
  }
  return rep;
}

engine::SweepOptions sweep_options(const Workload& w) {
  engine::SweepOptions options;
  options.threads = w.threads;
  return options;
}

std::uint64_t requests_per_rep(const Prepared& prepared) {
  std::uint64_t total = 0;
  for (const engine::ScenarioSpec& spec : prepared.specs) {
    total += spec.serving->requests;
  }
  return total;
}

std::uint64_t digest(const Outcome& o) {
  const serve::ServingMetrics& m = o.metrics;
  std::uint64_t h = fnv(
      m.offered, m.completed, m.shed, m.makespan_s, m.throughput_rps,
      m.goodput_rps, m.mean_latency_s, m.p50_s, m.p95_s, m.p99_s,
      m.max_latency_s, m.sla_violation_rate, m.mean_batch, m.utilization,
      m.energy_j, m.energy_per_request_j, m.resipi_conflicts, m.resipi_wait_s,
      m.shared_handoffs, m.handoff_resipi_s, m.service_cache_hits,
      m.service_cache_misses, m.p99_hi_s, m.p99_lo_s, m.first_arrival_abs_s,
      m.last_completion_abs_s, m.sim_events, m.sim_event_queue_peak,
      m.ttft_p99_s, m.decode_tps, m.kv_peak_bytes, m.abandoned, m.retries,
      m.repartitions, m.repartition_resipi_s, m.gate_events, m.gated_idle_s,
      m.faults_injected, m.carbon_g);
  if (o.rack) {
    const cluster::ClusterMetrics& r = *o.rack;
    mix(h, static_cast<std::uint64_t>(r.packages));
    mix(h, r.transfers);
    mix(h, r.transfer_latency_s);
    mix(h, r.transfer_energy_j);
    mix(h, r.util_min);
    mix(h, r.util_max);
  }
  return h;
}

std::string check(const Outcome& o, std::uint64_t expected_offered) {
  const serve::ServingMetrics& m = o.metrics;
  if (m.offered != m.completed + m.shed + m.abandoned) {
    return o.label + ": drain identity broken (offered " +
           std::to_string(m.offered) + " != completed " +
           std::to_string(m.completed) + " + shed " + std::to_string(m.shed) +
           " + abandoned " + std::to_string(m.abandoned) + ")";
  }
  if (m.offered != expected_offered) {
    return o.label + ": offered " + std::to_string(m.offered) +
           " requests, expected " + std::to_string(expected_offered);
  }
  return {};
}

}  // namespace optiplet::perfbench
