/// End-to-end observability contract of the serving simulator: span
/// schema, request-span reconciliation against the report, nesting,
/// shed-reason tagging, rack/lone trace equivalence, the energy counter
/// agreeing with the energy the report charges, the guarantee that
/// attaching a recorder never changes results, and a documentation entry
/// in docs/observability.md for every span and series name emitted.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_simulator.hpp"
#include "core/system_config.hpp"
#include "obs/recorder.hpp"
#include "serve/service_time.hpp"
#include "serve/serving_simulator.hpp"

namespace optiplet::obs {
namespace {

serve::ServingSpec small_spec() {
  serve::ServingSpec spec;
  spec.tenant_mix = "LeNet5";
  spec.arrival_rps = 2000.0;
  spec.requests = 150;
  return spec;
}

serve::ServingReport run_with(const serve::ServingSpec& spec,
                              Recorder* recorder) {
  serve::ServingConfig config = serve::make_serving_config(
      core::default_system_config(), accel::Architecture::kSiph2p5D, spec);
  config.recorder = recorder;
  return serve::simulate(config);
}

const std::string* find_arg(const TraceEvent& event, const std::string& key) {
  for (const TraceArg& a : event.args) {
    if (a.key == key) {
      return &a.value;
    }
  }
  return nullptr;
}

TEST(ServingTrace, EventsCarryTheTraceEventSchema) {
  Recorder recorder;
  (void)run_with(small_spec(), &recorder);
  ASSERT_FALSE(recorder.trace().events().empty());
  for (const TraceEvent& e : recorder.trace().events()) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_FALSE(e.cat.empty());
    EXPECT_TRUE(e.phase == 'X' || e.phase == 'i') << e.phase;
    EXPECT_GE(e.ts_us, 0.0);
    EXPECT_GE(e.dur_us, 0.0);
    EXPECT_EQ(e.pid, 0);
  }
  // Every track referenced by an event was named via metadata.
  std::map<std::uint64_t, bool> named;
  for (const TraceEvent& m : recorder.trace().metadata()) {
    if (m.name == "thread_name") {
      named[m.tid] = true;
    }
  }
  for (const TraceEvent& e : recorder.trace().events()) {
    EXPECT_TRUE(named[e.tid]) << "unnamed tid " << e.tid;
  }
}

TEST(ServingTrace, RequestSpansReconcileWithTheReport) {
  serve::ServingSpec spec = small_spec();
  // 1.5x the solo batch-1 capacity: past the knee, so shedding engages.
  serve::ColocatedSetup setup = serve::make_colocated_setup(
      core::default_system_config(), accel::Architecture::kSiph2p5D,
      {"LeNet5"});
  serve::ServiceTimeOracle oracle(std::move(setup.oracle_tenants),
                                  accel::Architecture::kSiph2p5D);
  spec.arrival_rps = 1.5 / oracle.batch_run(0, 1).latency_s;
  spec.requests = 600;
  spec.admission = serve::AdmissionPolicy::kSlaShed;
  Recorder recorder;
  const serve::ServingReport report = run_with(spec, &recorder);
  ASSERT_GT(report.metrics.shed, 0u);
  ASSERT_GT(report.metrics.completed, 0u);

  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  const TraceEvent* totals = nullptr;
  for (const TraceEvent& e : recorder.trace().events()) {
    if (e.name == "request") {
      const std::string* outcome = find_arg(e, "outcome");
      ASSERT_NE(outcome, nullptr);
      if (*outcome == "completed") {
        ++completed;
      } else if (*outcome == "shed") {
        ++shed;
        EXPECT_DOUBLE_EQ(e.dur_us, 0.0);
        const std::string* reason = find_arg(e, "shed_reason");
        ASSERT_NE(reason, nullptr);
        EXPECT_EQ(*reason, "predicted_sla_miss");
      } else {
        FAIL() << "unknown outcome " << *outcome;
      }
    } else if (e.name == "serving_totals") {
      totals = &e;
    }
  }
  EXPECT_EQ(completed, report.metrics.completed);
  EXPECT_EQ(shed, report.metrics.shed);
  EXPECT_EQ(completed + shed, report.metrics.offered);

  // The summary instant repeats the reconciliation inside the trace
  // itself — what tools/check_trace_json.py verifies offline.
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(*find_arg(*totals, "offered"),
            std::to_string(report.metrics.offered));
  EXPECT_EQ(*find_arg(*totals, "completed"),
            std::to_string(report.metrics.completed));
  EXPECT_EQ(*find_arg(*totals, "shed"), std::to_string(report.metrics.shed));
}

TEST(ServingTrace, QueueSpansNestWithinTheirRequestSpans) {
  Recorder recorder;
  (void)run_with(small_spec(), &recorder);

  // Request id -> [start, end] of its lifecycle span (microseconds).
  std::map<std::string, std::pair<double, double>> requests;
  for (const TraceEvent& e : recorder.trace().events()) {
    if (e.name == "request") {
      const std::string* id = find_arg(e, "request");
      ASSERT_NE(id, nullptr);
      requests[*id] = {e.ts_us, e.ts_us + e.dur_us};
    }
  }
  std::size_t queue_spans = 0;
  for (const TraceEvent& e : recorder.trace().events()) {
    if (e.name != "queue") {
      continue;
    }
    ++queue_spans;
    const std::string* id = find_arg(e, "request");
    ASSERT_NE(id, nullptr);
    const auto it = requests.find(*id);
    ASSERT_NE(it, requests.end()) << "queue span for unknown request " << *id;
    // Sub-microsecond rounding of the shared "%.3f" clock aside, the
    // wait must lie within the request's lifetime.
    EXPECT_GE(e.ts_us, it->second.first - 1e-3);
    EXPECT_LE(e.ts_us + e.dur_us, it->second.second + 1e-3);
  }
  EXPECT_GT(queue_spans, 0u);
}

TEST(ServingTrace, SinglePackageClusterTraceMatchesTheLoneSimulator) {
  cluster::ClusterConfig config;
  config.system = core::default_system_config();
  config.serving.tenant_mix = "LeNet5";
  config.serving.arrival_rps = 2000.0;
  config.serving.requests = 120;
  config.cluster.packages = 1;
  config.threads = 1;
  Recorder rack_recorder;
  config.recorder = &rack_recorder;
  (void)cluster::simulate(config);

  Recorder lone_recorder;
  serve::ServingConfig lone = serve::make_serving_config(
      config.system, config.arch, config.serving);
  lone.recorder = &lone_recorder;
  (void)serve::simulate(lone);

  // A 1-package rack routes nothing, so its merged trace is the lone
  // simulator's, event for event (pid 0 both sides; only the frontend
  // process-name metadata differs).
  const auto& rack = rack_recorder.trace().events();
  const auto& solo = lone_recorder.trace().events();
  ASSERT_EQ(rack.size(), solo.size());
  ASSERT_FALSE(solo.empty());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(rack[i].name, solo[i].name) << i;
    EXPECT_EQ(rack[i].cat, solo[i].cat) << i;
    EXPECT_EQ(rack[i].phase, solo[i].phase) << i;
    EXPECT_EQ(rack[i].ts_us, solo[i].ts_us) << i;
    EXPECT_EQ(rack[i].dur_us, solo[i].dur_us) << i;
    EXPECT_EQ(rack[i].pid, solo[i].pid) << i;
    EXPECT_EQ(rack[i].tid, solo[i].tid) << i;
    ASSERT_EQ(rack[i].args.size(), solo[i].args.size()) << i;
    for (std::size_t j = 0; j < solo[i].args.size(); ++j) {
      EXPECT_EQ(rack[i].args[j].key, solo[i].args[j].key) << i;
      EXPECT_EQ(rack[i].args[j].value, solo[i].args[j].value) << i;
    }
  }
}

TEST(ServingTrace, MetricsCoverTheAdvertisedSeries) {
  Recorder recorder;
  (void)run_with(small_spec(), &recorder);
  // The docs promise >= 10 series on any serving run (offered, completed,
  // batches, latency quantiles, gauges, ...).
  EXPECT_GE(recorder.metrics().series_count(), 10u);
  EXPECT_GT(recorder.metrics().samples().size(), 0u);
  EXPECT_DOUBLE_EQ(recorder.metrics().counter("serve.offered"), 150.0);
}

TEST(ServingTrace, EnergyCounterMatchesTheChargedTenantEnergy) {
  // serve.energy_j counts exactly what the tenant reports charge: whole
  // batches (all their decode steps included), pipelined batches and
  // continuous iterations; the idle burn stays out of both.
  serve::ServingSpec tokens;
  tokens.tenant_mix = "TinyGPT+TinyGPT";
  tokens.arrival_rps = 400.0;
  tokens.requests = 80;
  tokens.max_batch = 4;
  tokens.prefill_tokens = 64;
  tokens.decode_tokens = 16;
  serve::ServingSpec fixed;
  fixed.tenant_mix = "LeNet5+MobileNetV2";
  fixed.arrival_rps = 2000.0;
  fixed.requests = 200;
  fixed.policy = serve::BatchPolicy::kDeadline;
  std::vector<std::pair<std::string, serve::ServingSpec>> runs;
  for (const auto policy :
       {serve::BatchPolicy::kFixedSize, serve::BatchPolicy::kContinuous}) {
    tokens.policy = policy;
    runs.emplace_back(std::string("TinyGPT ") + to_string(policy), tokens);
  }
  for (const auto mode : {serve::PipelineMode::kBatchGranular,
                          serve::PipelineMode::kLayerGranular}) {
    fixed.pipeline = mode;
    runs.emplace_back(std::string("CNN ") + to_string(mode), fixed);
  }
  for (const auto& [name, spec] : runs) {
    Recorder recorder;
    const serve::ServingReport report = run_with(spec, &recorder);
    double charged_j = 0.0;
    for (const serve::TenantReport& tenant : report.tenants) {
      charged_j += tenant.energy_j;
    }
    ASSERT_GT(charged_j, 0.0) << name;
    EXPECT_NEAR(recorder.metrics().counter("serve.energy_j"), charged_j,
                1e-12 * charged_j)
        << name;
  }
}

TEST(ServingTrace, AttachingARecorderNeverChangesResults) {
  const serve::ServingSpec spec = small_spec();
  Recorder recorder;
  const serve::ServingReport with = run_with(spec, &recorder);
  const serve::ServingReport without = run_with(spec, nullptr);
  EXPECT_EQ(with.metrics.offered, without.metrics.offered);
  EXPECT_EQ(with.metrics.completed, without.metrics.completed);
  EXPECT_EQ(with.metrics.shed, without.metrics.shed);
  EXPECT_EQ(with.metrics.makespan_s, without.metrics.makespan_s);
  EXPECT_EQ(with.metrics.throughput_rps, without.metrics.throughput_rps);
  EXPECT_EQ(with.metrics.mean_latency_s, without.metrics.mean_latency_s);
  EXPECT_EQ(with.metrics.p99_s, without.metrics.p99_s);
  EXPECT_EQ(with.metrics.energy_j, without.metrics.energy_j);
  EXPECT_EQ(with.metrics.mean_batch, without.metrics.mean_batch);
  // The snapshot timer is the one permitted event-count delta.
  EXPECT_GE(with.metrics.sim_events, without.metrics.sim_events);
}

/// Every `backticked` token of a markdown file.
std::set<std::string> backticked(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::set<std::string> tokens;
  for (std::size_t open = text.find('`'); open != std::string::npos;) {
    const std::size_t close = text.find('`', open + 1);
    if (close == std::string::npos) {
      break;
    }
    tokens.insert(text.substr(open + 1, close - open - 1));
    open = text.find('`', close + 1);
  }
  return tokens;
}

/// The documented base name of an emitted series: the rack's `p<k>.`
/// package prefix and the snapshot suffixes stripped, and per-class
/// latency histograms folded into `serve.class<p>.latency`.
std::string series_base(std::string name) {
  if (name.size() > 1 && name[0] == 'p' && name[1] >= '0' && name[1] <= '9') {
    name.erase(0, name.find('.') + 1);
  }
  for (const char* suffix : {".rate", ".count", ".mean", ".p50", ".p99"}) {
    if (name.ends_with(suffix)) {
      name.resize(name.size() - std::strlen(suffix));
      break;
    }
  }
  if (name.starts_with("serve.class") && name.ends_with(".latency")) {
    return "serve.class<p>.latency";
  }
  return name;
}

/// Names of `recorder` missing from the doc, one per line.
std::string undocumented(const Recorder& recorder,
                         const std::set<std::string>& doc) {
  std::set<std::string> missing;
  for (const TraceEvent& e : recorder.trace().events()) {
    if (!doc.contains(e.name)) {
      missing.insert("span " + e.name);
    }
  }
  for (const MetricSample& sample : recorder.metrics().samples()) {
    const std::string base = series_base(sample.series);
    if (!doc.contains(base)) {
      missing.insert("series " + base);
    }
  }
  std::ostringstream out;
  for (const std::string& m : missing) {
    out << m << "\n";
  }
  return out.str();
}

TEST(ServingTrace, EveryEmittedNameIsDocumented) {
  const std::set<std::string> doc =
      backticked(std::string(OPTIPLET_SOURCE_DIR) + "/docs/observability.md");
  ASSERT_FALSE(doc.empty());

  // Fixed-shape: batch-granular with shedding, and layer-granular with
  // shared-group handoffs.
  serve::ServingSpec fixed;
  fixed.tenant_mix = "ResNet50+DenseNet121";
  fixed.arrival_rps = 2000.0;
  fixed.requests = 60;
  fixed.admission = serve::AdmissionPolicy::kSlaShed;
  for (const auto mode : {serve::PipelineMode::kBatchGranular,
                          serve::PipelineMode::kLayerGranular}) {
    fixed.pipeline = mode;
    Recorder recorder;
    (void)run_with(fixed, &recorder);
    EXPECT_EQ(undocumented(recorder, doc), "") << to_string(mode);
  }

  // Transformer, continuous batching.
  serve::ServingSpec tokens;
  tokens.tenant_mix = "TinyGPT";
  tokens.arrival_rps = 400.0;
  tokens.requests = 40;
  tokens.policy = serve::BatchPolicy::kContinuous;
  tokens.prefill_tokens = 32;
  tokens.decode_tokens = 8;
  {
    Recorder recorder;
    (void)run_with(tokens, &recorder);
    EXPECT_EQ(undocumented(recorder, doc), "") << "continuous";
  }

  // Elastic: re-partitioning, a chiplet fault, client retry, gating.
  serve::ServingSpec elastic;
  elastic.tenant_mix = "LeNet5+MobileNetV2";
  elastic.arrival_rps = 3000.0;
  elastic.requests = 400;
  elastic.policy = serve::BatchPolicy::kDeadline;
  elastic.admission = serve::AdmissionPolicy::kSlaShed;
  elastic.sla_s = 2.0e-3;
  elastic.elastic.shift_threshold = 0.05;
  elastic.elastic.ema_tau_s = 0.05;
  elastic.elastic.cooldown_s = 0.05;
  elastic.elastic.gate = true;
  elastic.elastic.gate_after_s = 1.0e-4;
  elastic.elastic.wake_s = 1.0e-5;
  elastic.elastic.retry_max_attempts = 2;
  elastic.elastic.retry_backoff_s = 1.0e-3;
  elastic.elastic.faults.push_back({0.06, 2, 1.0, -1});
  {
    Recorder recorder;
    const serve::ServingReport report = run_with(elastic, &recorder);
    ASSERT_GT(report.metrics.abandoned, 0u);
    ASSERT_GT(report.metrics.gate_events, 0u);
    EXPECT_EQ(undocumented(recorder, doc), "") << "elastic";
  }

  // A 2-package rack: package-prefixed series and frontend transfers.
  cluster::ClusterConfig rack;
  rack.system = core::default_system_config();
  rack.serving.tenant_mix = "LeNet5+MobileNetV2";
  rack.serving.arrival_rps = 4000.0;
  rack.serving.requests = 200;
  rack.cluster.packages = 2;
  rack.cluster.replication = 2;
  rack.cluster.balancer = cluster::BalancerPolicy::kRoundRobin;
  rack.threads = 1;
  {
    Recorder recorder;
    rack.recorder = &recorder;
    const cluster::ClusterReport report = cluster::simulate(rack);
    ASSERT_GT(report.metrics.transfers, 0u);
    EXPECT_EQ(undocumented(recorder, doc), "") << "rack";
  }
}

}  // namespace
}  // namespace optiplet::obs
