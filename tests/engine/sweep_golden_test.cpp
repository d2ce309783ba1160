/// \file sweep_golden_test.cpp
/// Golden pins of the sweep surface: what ScenarioGrid::expand() produces
/// and how ScenarioSpec::key() and the ResultStore CSV spell it.
///
/// Three grids together use every axis: (a) every interposer-shape axis
/// plus two override axes, (b) every serving axis, (c) every cluster
/// axis. For each grid the raw size, both modes, the feasible spec count,
/// the first and last key, and FNV-1a digests of all keys (and of the
/// serving fields a key leaves out) in expansion order are compared
/// against recorded values. Hand-built specs cover the key() branches the
/// grids never reach, hand-built results pin the CSV header and whole
/// rows, and the expansion's error messages are pinned by their text.
///
/// A failure is a behavior change of the sweep engine: fix the code, do
/// not re-record. When a schema change is intended,
/// `OPTIPLET_GOLDEN_DUMP=1 ./sweep_golden_test` prints the fresh values.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/result_store.hpp"
#include "engine/scenario.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace optiplet::engine {
namespace {

bool dumping() { return std::getenv("OPTIPLET_GOLDEN_DUMP") != nullptr; }

/// 64-bit FNV-1a over a sequence of strings, each terminated by '\n'.
class Digest {
 public:
  void mix(const std::string& text) {
    for (const char c : text) {
      byte(static_cast<unsigned char>(c));
    }
    byte('\n');
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void byte(unsigned char c) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// The serving and cluster fields key() omits in some branches (the rate
/// of a closed loop, the users of an open loop, the token knobs of a
/// fixed-shape spec, an inert elastic policy, an empty replication mix).
std::string hidden_fields(const ScenarioSpec& spec) {
  std::string out = spec.serving ? "serving" : "single";
  if (spec.serving) {
    const serve::ServingSpec& s = *spec.serving;
    out += ";rate=" + util::format_general(s.arrival_rps, 17) +
           ";src=" + serve::to_string(s.source) +
           ";users=" + std::to_string(s.users) +
           ";think=" + util::format_general(s.think_s, 17) +
           ";n=" + std::to_string(s.requests) +
           ";seed=" + std::to_string(s.seed) +
           ";prefill=" + std::to_string(s.prefill_tokens) +
           ";decode=" + std::to_string(s.decode_tokens) +
           ";spread=" + util::format_general(s.token_spread, 17) +
           ";kv=" + util::format_general(s.kv_cache_mb, 17) +
           ";elastic=" + serve::to_string(s.elastic) +
           ";prio=" + s.priority_mix + ";trace=" + s.trace_path;
  }
  if (spec.cluster) {
    out += ";cluster;repmix=" + spec.cluster->replication_mix;
  }
  return out;
}

struct GridGolden {
  std::size_t raw_size;
  bool serving_mode;
  bool cluster_mode;
  std::size_t specs;
  const char* first_key;
  const char* last_key;
  std::uint64_t key_digest;
  std::uint64_t field_digest;
};

void expect_grid(const char* name, const ScenarioGrid& grid,
                 const GridGolden& golden) {
  const std::vector<ScenarioSpec> specs =
      grid.expand(core::default_system_config());
  ASSERT_FALSE(specs.empty()) << name;
  Digest keys;
  Digest fields;
  for (const ScenarioSpec& spec : specs) {
    const std::string key = spec.key();
    keys.mix(key);
    fields.mix(key + "|" + hidden_fields(spec));
  }
  if (dumping()) {
    std::printf(
        "%s: {%zu, %s, %s, %zu,\n  \"%s\",\n  \"%s\",\n  0x%016llxULL, "
        "0x%016llxULL}\n",
        name, grid.raw_size(), grid.serving_mode() ? "true" : "false",
        grid.cluster_mode() ? "true" : "false", specs.size(),
        specs.front().key().c_str(), specs.back().key().c_str(),
        static_cast<unsigned long long>(keys.value()),
        static_cast<unsigned long long>(fields.value()));
  }
  EXPECT_EQ(grid.raw_size(), golden.raw_size) << name;
  EXPECT_EQ(grid.serving_mode(), golden.serving_mode) << name;
  EXPECT_EQ(grid.cluster_mode(), golden.cluster_mode) << name;
  EXPECT_EQ(specs.size(), golden.specs) << name;
  EXPECT_EQ(specs.front().key(), golden.first_key) << name;
  EXPECT_EQ(specs.back().key(), golden.last_key) << name;
  EXPECT_EQ(keys.value(), golden.key_digest) << name;
  EXPECT_EQ(fields.value(), golden.field_digest) << name;
}

void expect_text(const char* name, const std::string& actual,
                 const char* golden) {
  if (dumping()) {
    std::printf("%s:\n  \"%s\"\n", name, actual.c_str());
  }
  EXPECT_EQ(actual, golden) << name;
}

// ------------------------------------------------------------- the grids

/// (a) Every interposer-shape axis plus two override axes, on three
/// architectures: exercises the feasibility filter (gateways that do not
/// divide the wavelengths, SiPh link budgets that cannot close).
ScenarioGrid shape_grid() {
  ScenarioGrid grid;
  grid.models = {"LeNet5", "VGG16"};
  grid.architectures = {accel::Architecture::kMonolithicCrossLight,
                        accel::Architecture::kElec2p5D,
                        accel::Architecture::kSiph2p5D};
  grid.batch_sizes = {1, 4};
  grid.wavelengths = {16, 32, 64, 128};
  grid.gateways_per_chiplet = {2, 3, 4};
  grid.modulations = {photonics::ModulationFormat::kOok,
                      photonics::ModulationFormat::kPam4};
  grid.fidelities = {core::Fidelity::kAnalytical,
                     core::Fidelity::kCycleAccurate};
  grid.override_axes = {{"resipi.epoch_s", {5e-6, 1e-5}},
                        {"idle_power_fraction", {0.05, 0.1}}};
  return grid;
}

/// (b) Every serving axis, including closed loop, token counts and two
/// elastic policies, under two batch sizes and two fidelities.
ScenarioGrid serving_grid() {
  ScenarioGrid grid;
  grid.batch_sizes = {1, 2};
  grid.fidelities = {core::Fidelity::kAnalytical,
                     *core::fidelity_from_string("sampled:windows=2,seed=3")};
  grid.tenant_mixes = {"LeNet5", "TinyGPT+LeNet5"};
  grid.arrival_rates_rps = {500.0, 2000.0};
  grid.batch_policies = {serve::BatchPolicy::kNone,
                         serve::BatchPolicy::kFixedSize,
                         serve::BatchPolicy::kDeadline,
                         serve::BatchPolicy::kContinuous};
  grid.pipeline_modes = {serve::PipelineMode::kBatchGranular,
                         serve::PipelineMode::kLayerGranular};
  grid.arrival_sources = {serve::ArrivalSource::kOpenLoop,
                          serve::ArrivalSource::kClosedLoop};
  grid.user_counts = {4, 32};
  grid.admission_policies = {serve::AdmissionPolicy::kAdmitAll,
                             serve::AdmissionPolicy::kSlaShed};
  grid.prefill_token_counts = {64, 256};
  grid.decode_token_counts = {0, 32};
  grid.elastic_policies = {"static", "shift=0.2/gate=1e-3:1e-4"};
  grid.serving_defaults.requests = 300;
  grid.serving_defaults.max_batch = 4;
  grid.serving_defaults.token_spread = 0.25;
  return grid;
}

/// (c) Every cluster axis and nothing else on the serving side: the
/// cluster axes alone must switch the grid to serving mode with the
/// defaults' tenant mix.
ScenarioGrid cluster_grid() {
  ScenarioGrid grid;
  grid.architectures = {accel::Architecture::kElec2p5D,
                        accel::Architecture::kSiph2p5D};
  grid.package_counts = {1, 2, 4};
  grid.balancer_policies = {cluster::BalancerPolicy::kRoundRobin,
                            cluster::BalancerPolicy::kLeastLoaded,
                            cluster::BalancerPolicy::kLocalityAware};
  grid.replication_factors = {1, 2};
  grid.serving_defaults.tenant_mix = "LeNet5+MobileNetV2";
  grid.cluster_defaults.link_length_m = 0.5;
  return grid;
}

TEST(SweepGolden, ShapeGridExpansion) {
  expect_grid("shape", shape_grid(),
              {2304, false, false, 1344,
               "model=LeNet5;arch=CrossLight;batch=1;wl=16;gw=2;mod=OOK;"
               "fid=analytical;idle_power_fraction=0.050000000000000003;"
               "resipi.epoch_s=5.0000000000000004e-06",
               "model=VGG16;arch=2.5D-CrossLight-Elec;batch=4;wl=128;gw=4;"
               "mod=PAM-4;fid=cycle;idle_power_fraction=0.10000000000000001;"
               "resipi.epoch_s=1.0000000000000001e-05",
               0x30d4c9579ca85cddULL, 0x4f640e45f7f9c4bdULL});
}

TEST(SweepGolden, ServingGridExpansion) {
  expect_grid("serving", serving_grid(),
              {8192, true, false, 8192,
               "model=LeNet5;arch=2.5D-CrossLight-SiPh;batch=1;wl=64;gw=4;"
               "mod=OOK;fid=analytical;serve.policy=none;serve.pipe=batch;"
               "serve.batch=4;serve.wait=0.001;serve.mix=LeNet5;serve.sla=0;"
               "serve.adm=all;serve.prefill=64;serve.decode=0;"
               "serve.spread=0.25;serve.kv_mb=256;serve.rate=500;serve.n=300;"
               "serve.seed=42",
               "model=TinyGPT+LeNet5;arch=2.5D-CrossLight-SiPh;batch=2;wl=64;"
               "gw=4;mod=OOK;fid=sampled:windows=2,layers=1,seed=3,conf=0.95;"
               "serve.policy=cont;serve.pipe=layer;serve.batch=4;"
               "serve.wait=0.001;serve.mix=TinyGPT+LeNet5;serve.sla=0;"
               "serve.adm=shed;"
               "serve.elastic=shift=0.20000000000000001/gate=0.001:0.0001;"
               "serve.prefill=256;serve.decode=32;serve.spread=0.25;"
               "serve.kv_mb=256;serve.src=closed;serve.users=32;"
               "serve.think=0.01;serve.n=300;serve.seed=42",
               0xb69b03ddd73f1405ULL, 0xdd414ce74bb31345ULL});
}

TEST(SweepGolden, ClusterGridExpansion) {
  expect_grid("cluster", cluster_grid(),
              {36, true, true, 36,
               "model=LeNet5+MobileNetV2;arch=2.5D-CrossLight-Elec;batch=1;"
               "wl=64;gw=4;mod=OOK;fid=analytical;serve.policy=none;"
               "serve.pipe=batch;serve.batch=8;serve.wait=0.001;"
               "serve.mix=LeNet5+MobileNetV2;serve.sla=0;serve.adm=all;"
               "serve.rate=200;serve.n=2000;serve.seed=42;cluster.pkgs=1;"
               "cluster.bal=rr;cluster.rep=1;cluster.len=0.5;cluster.linkwl=16",
               "model=LeNet5+MobileNetV2;arch=2.5D-CrossLight-SiPh;batch=1;"
               "wl=64;gw=4;mod=OOK;fid=analytical;serve.policy=none;"
               "serve.pipe=batch;serve.batch=8;serve.wait=0.001;"
               "serve.mix=LeNet5+MobileNetV2;serve.sla=0;serve.adm=all;"
               "serve.rate=200;serve.n=2000;serve.seed=42;cluster.pkgs=4;"
               "cluster.bal=locality;cluster.rep=2;cluster.len=0.5;"
               "cluster.linkwl=16",
               0xe8d7ff31fbc75b43ULL, 0x5c6c913937c4fa43ULL});
}

TEST(SweepGolden, EmptyGridIsAllFiveModelsAtTheBaseShape) {
  const ScenarioGrid grid;
  expect_grid("empty", grid,
              {5, false, false, 5,
               "model=LeNet5;arch=2.5D-CrossLight-SiPh;batch=1;wl=64;gw=4;"
               "mod=OOK;fid=analytical",
               "model=MobileNetV2;arch=2.5D-CrossLight-SiPh;batch=1;wl=64;gw=4;"
               "mod=OOK;fid=analytical",
               0x36a91acfb4f14a6dULL, 0xf11bcfa8094c60c1ULL});
}

// ------------------------------------------------ key() branches by hand

ScenarioSpec serving_spec(const std::string& mix) {
  ScenarioSpec spec;
  spec.model = mix;
  spec.serving = serve::ServingSpec{};
  spec.serving->tenant_mix = mix;
  return spec;
}

TEST(SweepGolden, KeyBranchesTheGridsMiss) {
  ScenarioSpec trace_open = serving_spec("LeNet5");
  trace_open.serving->trace_path = "arrivals.csv";
  expect_text("trace_open", trace_open.key(),
              "model=LeNet5;arch=2.5D-CrossLight-SiPh;batch=1;wl=64;gw=4;"
              "mod=OOK;fid=analytical;serve.policy=none;serve.pipe=batch;"
              "serve.batch=8;serve.wait=0.001;serve.mix=LeNet5;serve.sla=0;"
              "serve.adm=all;serve.trace=arrivals.csv");

  ScenarioSpec trace_closed = trace_open;
  trace_closed.serving->source = serve::ArrivalSource::kClosedLoop;
  expect_text("trace_closed", trace_closed.key(),
              "model=LeNet5;arch=2.5D-CrossLight-SiPh;batch=1;wl=64;gw=4;"
              "mod=OOK;fid=analytical;serve.policy=none;serve.pipe=batch;"
              "serve.batch=8;serve.wait=0.001;serve.mix=LeNet5;serve.sla=0;"
              "serve.adm=all;serve.trace=arrivals.csv;serve.src=closed");

  ScenarioSpec priority = serving_spec("ResNet50+DenseNet121");
  priority.serving->priority_mix = "0+1";
  priority.serving->admission = serve::AdmissionPolicy::kSlaShed;
  expect_text("priority", priority.key(),
              "model=ResNet50+DenseNet121;arch=2.5D-CrossLight-SiPh;batch=1;"
              "wl=64;gw=4;mod=OOK;fid=analytical;serve.policy=none;"
              "serve.pipe=batch;serve.batch=8;serve.wait=0.001;"
              "serve.mix=ResNet50+DenseNet121;serve.sla=0;serve.adm=shed;"
              "serve.prio=0+1;serve.rate=200;serve.n=2000;serve.seed=42");

  ScenarioSpec rack = serving_spec("ResNet50+LeNet5");
  rack.cluster = cluster::ClusterSpec{};
  rack.cluster->packages = 2;
  rack.cluster->replication_mix = "1+2";
  expect_text("replication_mix", rack.key(),
              "model=ResNet50+LeNet5;arch=2.5D-CrossLight-SiPh;batch=1;wl=64;"
              "gw=4;mod=OOK;fid=analytical;serve.policy=none;serve.pipe=batch;"
              "serve.batch=8;serve.wait=0.001;serve.mix=ResNet50+LeNet5;"
              "serve.sla=0;serve.adm=all;serve.rate=200;serve.n=2000;"
              "serve.seed=42;cluster.pkgs=2;cluster.bal=locality;cluster.rep=1;"
              "cluster.len=0.25;cluster.linkwl=16;cluster.repmix=1+2");
}

// ------------------------------------------------------------ CSV schema

/// Serving metrics with a distinct short value in every CSV-visible field.
serve::ServingMetrics filled_metrics() {
  serve::ServingMetrics m;
  m.offered = 300;
  m.completed = 290;
  m.shed = 10;
  m.throughput_rps = 1450.5;
  m.goodput_rps = 1300.25;
  m.mean_latency_s = 1.5e-4;
  m.p50_s = 1.25e-4;
  m.p95_s = 2.5e-4;
  m.p99_s = 3.75e-4;
  m.sla_violation_rate = 0.0625;
  m.mean_batch = 2.5;
  m.utilization = 0.4375;
  m.energy_per_request_j = 1.125e-3;
  m.p99_hi_s = 3.5e-4;
  m.p99_lo_s = 4.5e-4;
  m.sim_events = 1234;
  m.sim_event_queue_peak = 17;
  m.service_cache_hits = 40;
  m.service_cache_misses = 6;
  return m;
}

ScenarioResult serving_result(const std::string& mix) {
  ScenarioResult r;
  r.spec = serving_spec(mix);
  r.spec.serving->arrival_rps = 450.0;
  r.spec.serving->policy = serve::BatchPolicy::kDeadline;
  r.run.latency_s = 1.5e-4;
  r.run.average_power_w = 12.5;
  r.run.energy_j = 0.325;
  r.run.epb_j_per_bit = 2.5e-12;
  r.run.traffic_bits = 4096;
  r.serving = filled_metrics();
  r.eval_wall_s = 0.125;
  return r;
}

std::string csv_line(const ScenarioResult& result) {
  return util::join(ResultStore::csv_row(result), ",");
}

TEST(SweepGolden, CsvHeader) {
  expect_text("header", util::join(ResultStore::csv_header(), ","),
              "model,architecture,batch_size,wavelengths,gateways_per_chiplet,"
              "modulation,fidelity,overrides,latency_s,power_w,energy_j,"
              "epb_j_per_bit,traffic_bits,resipi_reconfigurations,"
              "mean_active_gateways,serving,arrival_rps,batch_policy,pipeline,"
              "max_batch,tenant_mix,requests,throughput_rps,mean_latency_s,"
              "p50_s,p95_s,p99_s,sla_violation_rate,mean_batch,utilization,"
              "energy_per_request_j,arrival_source,users,think_s,admission,"
              "priority_mix,shed,goodput_rps,p99_hi_s,p99_lo_s,prefill_tokens,"
              "decode_tokens,ttft_p99_s,decode_tps,kv_peak_bytes,packages,"
              "balancer,replication,transfers,transfer_latency_s,"
              "transfer_energy_j,elastic,repartitions,repartition_resipi_s,"
              "gate_events,gated_idle_s,retries,abandoned,carbon_g,eval_wall_s,"
              "from_cache,sim_events,event_queue_peak,oracle_cache_hits,"
              "oracle_cache_misses");
}

TEST(SweepGolden, CsvRows) {
  ScenarioResult single;
  single.spec.model = "VGG16";
  single.spec.arch = accel::Architecture::kElec2p5D;
  single.spec.batch_size = 4;
  single.spec.modulation = photonics::ModulationFormat::kPam4;
  single.spec.overrides = {{"resipi.epoch_s", 5e-6},
                           {"idle_power_fraction", 0.05}};
  single.run.latency_s = 2.5e-3;
  single.run.average_power_w = 31.25;
  single.run.energy_j = 0.078125;
  single.run.epb_j_per_bit = 1.5e-12;
  single.run.traffic_bits = 123456;
  single.run.resipi_reconfigurations = 3;
  single.run.mean_active_gateways = 3.5;
  single.eval_wall_s = 0.25;
  single.from_cache = true;
  expect_text("single", csv_line(single),
              "VGG16,2.5D-CrossLight-Elec,4,64,4,PAM-4,analytical,"
              "resipi.epoch_s=5e-06 idle_power_fraction=0.05,0.0025,31.25,"
              "0.078125,1.5e-12,123456,3,3.5,0,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,"
              ",,,,,,,,,,,0.25,1,,,,");

  const ScenarioResult open = serving_result("LeNet5+VGG16");
  expect_text("open_loop", csv_line(open),
              "LeNet5+VGG16,2.5D-CrossLight-SiPh,1,64,4,OOK,analytical,,"
              "0.00015,12.5,0.325,2.5e-12,4096,0,0,1,450,deadline,batch,8,"
              "LeNet5+VGG16,2000,1450.5,0.00015,0.000125,0.00025,0.000375,"
              "0.0625,2.5,0.4375,0.001125,open,,,all,,10,1300.25,0.00035,"
              "0.00045,,,,,,,,,,,,static,0,0,0,0,0,0,0,0.125,0,1234,17,40,6");

  ScenarioResult closed = serving_result("LeNet5");
  closed.spec.serving->source = serve::ArrivalSource::kClosedLoop;
  closed.spec.serving->users = 8;
  closed.spec.serving->think_s = 2e-3;
  closed.spec.serving->admission = serve::AdmissionPolicy::kSlaShed;
  closed.spec.serving->priority_mix = "0";
  expect_text("closed_loop", csv_line(closed),
              "LeNet5,2.5D-CrossLight-SiPh,1,64,4,OOK,analytical,,0.00015,12.5,"
              "0.325,2.5e-12,4096,0,0,1,450,deadline,batch,8,LeNet5,2000,"
              "1450.5,0.00015,0.000125,0.00025,0.000375,0.0625,2.5,0.4375,"
              "0.001125,closed,8,0.002,shed,0,10,1300.25,0.00035,0.00045,,,,,,,"
              ",,,,,static,0,0,0,0,0,0,0,0.125,0,1234,17,40,6");

  ScenarioResult tokens = serving_result("TinyGPT");
  tokens.spec.serving->policy = serve::BatchPolicy::kContinuous;
  tokens.spec.serving->prefill_tokens = 128;
  tokens.spec.serving->decode_tokens = 32;
  tokens.serving->ttft_p99_s = 6.25e-4;
  tokens.serving->decode_tps = 8192.5;
  tokens.serving->kv_peak_bytes = 1048576;
  expect_text("tokens", csv_line(tokens),
              "TinyGPT,2.5D-CrossLight-SiPh,1,64,4,OOK,analytical,,0.00015,"
              "12.5,0.325,2.5e-12,4096,0,0,1,450,cont,batch,8,TinyGPT,2000,"
              "1450.5,0.00015,0.000125,0.00025,0.000375,0.0625,2.5,0.4375,"
              "0.001125,open,,,all,,10,1300.25,0.00035,0.00045,128,32,0.000625,"
              "8192.5,1048576,,,,,,,static,0,0,0,0,0,0,0,0.125,0,1234,17,40,6");

  ScenarioResult rack = serving_result("ResNet50+LeNet5");
  rack.spec.cluster = cluster::ClusterSpec{};
  rack.spec.cluster->packages = 2;
  rack.spec.cluster->balancer = cluster::BalancerPolicy::kLeastLoaded;
  rack.spec.cluster->replication_mix = "1+2";
  rack.cluster = cluster::ClusterMetrics{};
  rack.cluster->packages = 2;
  rack.cluster->transfers = 77;
  rack.cluster->transfer_latency_s = 1.5e-6;
  rack.cluster->transfer_energy_j = 2.5e-9;
  expect_text("rack", csv_line(rack),
              "ResNet50+LeNet5,2.5D-CrossLight-SiPh,1,64,4,OOK,analytical,,"
              "0.00015,12.5,0.325,2.5e-12,4096,0,0,1,450,deadline,batch,8,"
              "ResNet50+LeNet5,2000,1450.5,0.00015,0.000125,0.00025,0.000375,"
              "0.0625,2.5,0.4375,0.001125,open,,,all,,10,1300.25,0.00035,"
              "0.00045,,,,,,2,least,1+2,77,1.5e-06,2.5e-09,static,0,0,0,0,0,0,"
              "0,0.125,0,1234,17,40,6");

  ScenarioResult elastic = serving_result("LeNet5");
  elastic.spec.serving->elastic =
      *serve::elastic_from_string("shift=0.2/gate=1e-3:1e-4/retry=4:2e-3");
  elastic.serving->repartitions = 2;
  elastic.serving->repartition_resipi_s = 5e-6;
  elastic.serving->gate_events = 9;
  elastic.serving->gated_idle_s = 0.75;
  elastic.serving->retries = 5;
  elastic.serving->abandoned = 1;
  elastic.serving->carbon_g = 0.0125;
  expect_text("elastic", csv_line(elastic),
              "LeNet5,2.5D-CrossLight-SiPh,1,64,4,OOK,analytical,,0.00015,12.5,"
              "0.325,2.5e-12,4096,0,0,1,450,deadline,batch,8,LeNet5,2000,"
              "1450.5,0.00015,0.000125,0.00025,0.000375,0.0625,2.5,0.4375,"
              "0.001125,open,,,all,,10,1300.25,0.00035,0.00045,,,,,,,,,,,,"
              "shift=0.20000000000000001/gate=0.001:0.0001/retry=4:0.002,2,"
              "5e-06,9,0.75,5,1,0.0125,0.125,0,1234,17,40,6");
}

// -------------------------------------------------------- error messages

/// The part of an expansion error after the requirement's location.
std::string expand_error(const ScenarioGrid& grid) {
  try {
    (void)grid.expand(core::default_system_config());
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const std::string dash = " \xE2\x80\x94 ";  // " — "
    const auto at = what.find(dash);
    return at == std::string::npos ? what : what.substr(at + dash.size());
  }
  return "no error";
}

TEST(SweepGolden, ExpansionErrors) {
  ScenarioGrid unknown_model;
  unknown_model.models = {"AlexNet"};
  expect_text("unknown_model", expand_error(unknown_model),
              "unknown model name: AlexNet (known: LeNet5, ResNet50,"
              " DenseNet121, VGG16, MobileNetV2, TinyGPT)");

  ScenarioGrid unknown_tenant;
  unknown_tenant.tenant_mixes = {"LeNet5+AlexNet"};
  expect_text("unknown_tenant", expand_error(unknown_tenant),
              "unknown model name: AlexNet (known: LeNet5, ResNet50,"
              " DenseNet121, VGG16, MobileNetV2, TinyGPT)");

  ScenarioGrid unknown_key;
  unknown_key.models = {"LeNet5"};
  unknown_key.override_axes = {{"no.such.knob", {1.0}}};
  expect_text("unknown_key", expand_error(unknown_key),
              "unknown SystemConfig override key: no.such.knob");

  ScenarioGrid empty_axis;
  empty_axis.models = {"LeNet5"};
  empty_axis.override_axes = {{"resipi.epoch_s", {}}};
  expect_text("empty_axis", expand_error(empty_axis),
              "empty override axis for key: resipi.epoch_s");

  ScenarioGrid duplicate_axis;
  duplicate_axis.models = {"LeNet5"};
  duplicate_axis.override_axes = {{"resipi.epoch_s", {5e-6}},
                                  {"resipi.epoch_s", {1e-5}}};
  expect_text("duplicate_axis", expand_error(duplicate_axis),
              "duplicate override axis for key: resipi.epoch_s");

  ScenarioGrid bad_elastic;
  bad_elastic.elastic_policies = {"static", "shift=oops"};
  expect_text("bad_elastic", expand_error(bad_elastic),
              "unparseable elastic policy: shift=oops");
}

}  // namespace
}  // namespace optiplet::engine
