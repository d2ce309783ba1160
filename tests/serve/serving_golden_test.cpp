/// \file serving_golden_test.cpp
/// Golden bit-identity pins of the serving simulator and the rack merge.
///
/// One small scenario per execution path — batch-granular deadline
/// batching with shedding and priority classes (plus a colliding-window
/// pair for the ReSiPI wait), layer-granular pipelining with shared-group
/// handoffs, variable-length size batching, continuous batching under a
/// closed loop, full elastic operation, a replicated rack, and a
/// transformer (size-batched or continuous) sharing the layer-mode pool
/// with two pipelined CNNs — is run,
/// and every field of ServingMetrics, TenantReport, ClassReport, DayPoint
/// and ClusterMetrics is compared bit for bit against recorded values
/// (hex-float literals, so a mismatch names the field and both exact
/// values). Digests additionally pin the per-batch
/// trace, the raw latency samples, the per-chiplet busy time and the
/// energy ledger.
///
/// The determinism tests elsewhere compare two runs of one build; these
/// tables compare against the numbers a refactor started from, so two
/// copies of one accounting rule cannot drift apart unnoticed. A failing
/// field is a behavior change: fix the code, do not re-record. When a
/// model change is intended, `OPTIPLET_GOLDEN_DUMP=1 ./serving_golden_test`
/// prints fresh tables in this file's syntax.

#include <gtest/gtest.h>

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_simulator.hpp"
#include "core/system_config.hpp"
#include "serve/serving_simulator.hpp"

namespace optiplet::serve {
namespace {

struct Golden {
  const char* field;
  double value;
};

struct GoldenDigest {
  const char* field;
  std::uint64_t value;
};

/// 64-bit FNV-1a over the exact bit patterns of a value sequence.
class Digest {
 public:
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(double value) { mix(std::bit_cast<std::uint64_t>(value)); }
  void mix(const std::string& text) {
    for (const char c : text) {
      mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// A report flattened to named numeric fields plus named digests.
class Flat {
 public:
  using Digests = std::vector<std::pair<std::string, std::uint64_t>>;
  struct Entry {
    std::string field;
    double value = 0.0;
    bool integral = false;
  };

  void add(const std::string& field, double value) {
    entries_.push_back({prefix_ + field, value, false});
  }
  template <std::integral T>
  void add(const std::string& field, T value) {
    entries_.push_back({prefix_ + field, static_cast<double>(value), true});
  }
  void digest(const std::string& field, const Digest& d) {
    digests_.emplace_back(prefix_ + field, d.value());
  }
  void scope(std::string prefix) { prefix_ = std::move(prefix); }
  [[nodiscard]] const std::string& prefix() const { return prefix_; }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] const Digests& digests() const { return digests_; }

 private:
  std::string prefix_;
  std::vector<Entry> entries_;
  Digests digests_;
};

#define GOLDEN_FIELD(f) flat.add(#f, x.f)

void flatten(Flat& flat, const ServingMetrics& x) {
  GOLDEN_FIELD(offered);
  GOLDEN_FIELD(completed);
  GOLDEN_FIELD(shed);
  GOLDEN_FIELD(makespan_s);
  GOLDEN_FIELD(throughput_rps);
  GOLDEN_FIELD(goodput_rps);
  GOLDEN_FIELD(mean_latency_s);
  GOLDEN_FIELD(p50_s);
  GOLDEN_FIELD(p95_s);
  GOLDEN_FIELD(p99_s);
  GOLDEN_FIELD(max_latency_s);
  GOLDEN_FIELD(sla_violation_rate);
  GOLDEN_FIELD(mean_batch);
  GOLDEN_FIELD(utilization);
  GOLDEN_FIELD(energy_j);
  GOLDEN_FIELD(energy_per_request_j);
  GOLDEN_FIELD(resipi_conflicts);
  GOLDEN_FIELD(resipi_wait_s);
  GOLDEN_FIELD(shared_handoffs);
  GOLDEN_FIELD(handoff_resipi_s);
  GOLDEN_FIELD(service_cache_hits);
  GOLDEN_FIELD(service_cache_misses);
  GOLDEN_FIELD(p99_hi_s);
  GOLDEN_FIELD(p99_lo_s);
  GOLDEN_FIELD(first_arrival_abs_s);
  GOLDEN_FIELD(last_completion_abs_s);
  GOLDEN_FIELD(sim_events);
  GOLDEN_FIELD(sim_event_queue_peak);
  GOLDEN_FIELD(ttft_p99_s);
  GOLDEN_FIELD(decode_tps);
  GOLDEN_FIELD(kv_peak_bytes);
  GOLDEN_FIELD(abandoned);
  GOLDEN_FIELD(retries);
  GOLDEN_FIELD(repartitions);
  GOLDEN_FIELD(repartition_resipi_s);
  GOLDEN_FIELD(gate_events);
  GOLDEN_FIELD(gated_idle_s);
  GOLDEN_FIELD(faults_injected);
  GOLDEN_FIELD(carbon_g);
}

void flatten(Flat& flat, const TenantReport& x) {
  GOLDEN_FIELD(priority);
  GOLDEN_FIELD(offered);
  GOLDEN_FIELD(completed);
  GOLDEN_FIELD(shed);
  GOLDEN_FIELD(batches);
  GOLDEN_FIELD(throughput_rps);
  GOLDEN_FIELD(goodput_rps);
  GOLDEN_FIELD(mean_latency_s);
  GOLDEN_FIELD(p50_s);
  GOLDEN_FIELD(p95_s);
  GOLDEN_FIELD(p99_s);
  GOLDEN_FIELD(max_latency_s);
  GOLDEN_FIELD(sla_s);
  GOLDEN_FIELD(sla_violation_rate);
  GOLDEN_FIELD(mean_batch);
  GOLDEN_FIELD(busy_s);
  GOLDEN_FIELD(utilization);
  GOLDEN_FIELD(energy_j);
  GOLDEN_FIELD(energy_per_request_j);
  GOLDEN_FIELD(shared_wait_s);
  GOLDEN_FIELD(resipi_wait_s);
  GOLDEN_FIELD(resipi_conflicts);
  GOLDEN_FIELD(shared_handoffs);
  GOLDEN_FIELD(handoff_resipi_s);
  GOLDEN_FIELD(ttft_p99_s);
  GOLDEN_FIELD(decode_tps);
  GOLDEN_FIELD(kv_peak_bytes);
  GOLDEN_FIELD(abandoned);
  GOLDEN_FIELD(retries);
  GOLDEN_FIELD(gate_events);
  GOLDEN_FIELD(gated_idle_s);
}

void flatten(Flat& flat, const ClassReport& x) {
  GOLDEN_FIELD(priority);
  GOLDEN_FIELD(offered);
  GOLDEN_FIELD(completed);
  GOLDEN_FIELD(shed);
  GOLDEN_FIELD(abandoned);
  GOLDEN_FIELD(p99_s);
  GOLDEN_FIELD(sla_violation_rate);
  GOLDEN_FIELD(goodput_rps);
}

void flatten(Flat& flat, const DayPoint& x) {
  GOLDEN_FIELD(t0_s);
  GOLDEN_FIELD(dt_s);
  GOLDEN_FIELD(offered);
  GOLDEN_FIELD(completed);
  GOLDEN_FIELD(energy_j);
  GOLDEN_FIELD(energy_per_request_j);
  GOLDEN_FIELD(carbon_g);
}

#undef GOLDEN_FIELD

/// Run `body` with `suffix` appended to the current field prefix.
template <typename F>
void scoped(Flat& flat, const std::string& suffix, F&& body) {
  const std::string outer = flat.prefix();
  flat.scope(outer + suffix);
  body();
  flat.scope(outer);
}

void flatten_curve(Flat& flat, const std::vector<DayPoint>& curve) {
  flat.add("day_curve.size", curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    scoped(flat, "day_curve[" + std::to_string(i) + "].",
           [&] { flatten(flat, curve[i]); });
  }
}

void flatten(Flat& flat, const ServingReport& report) {
  scoped(flat, "metrics.", [&] { flatten(flat, report.metrics); });
  flat.add("tenants.size", report.tenants.size());
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    scoped(flat, "tenants[" + std::to_string(i) + "].",
           [&] { flatten(flat, report.tenants[i]); });
  }
  flat.add("classes.size", report.classes.size());
  for (std::size_t i = 0; i < report.classes.size(); ++i) {
    scoped(flat, "classes[" + std::to_string(i) + "].",
           [&] { flatten(flat, report.classes[i]); });
  }
  flatten_curve(flat, report.day_curve);

  Digest batches;
  for (const BatchTrace& b : report.batches) {
    batches.mix(static_cast<std::uint64_t>(b.tenant));
    batches.mix(static_cast<std::uint64_t>(b.size));
    batches.mix(b.start_s);
    batches.mix(b.end_s);
    batches.mix(static_cast<std::uint64_t>(b.chiplets.size()));
    for (const std::size_t c : b.chiplets) {
      batches.mix(static_cast<std::uint64_t>(c));
    }
    batches.mix(b.resipi_start_s);
    batches.mix(b.resipi_end_s);
    batches.mix(static_cast<std::uint64_t>(b.first_layer));
    batches.mix(static_cast<std::uint64_t>(b.layer_count));
    batches.mix(b.batch_id);
  }
  flat.add("batches.size", report.batches.size());
  flat.digest("batches", batches);

  Digest samples;
  for (const std::vector<double>& tenant : report.tenant_latencies) {
    samples.mix(static_cast<std::uint64_t>(tenant.size()));
    for (const double l : tenant) {
      samples.mix(l);
    }
  }
  flat.digest("tenant_latencies", samples);

  Digest busy;
  for (const double b : report.chiplet_busy_s) {
    busy.mix(b);
  }
  flat.digest("chiplet_busy_s", busy);

  Digest ledger;
  for (const auto& [category, entry] : report.ledger.entries()) {
    ledger.mix(category);
    ledger.mix(entry.dynamic_energy_j);
    ledger.mix(entry.static_power_w);
  }
  flat.digest("ledger", ledger);
}

void flatten(Flat& flat, const cluster::ClusterReport& report) {
  const cluster::ClusterMetrics& m = report.metrics;
  scoped(flat, "rack.", [&] { flatten(flat, m.rack); });
  flat.add("packages", m.packages);
  flat.add("transfers", m.transfers);
  flat.add("transfer_latency_s", m.transfer_latency_s);
  flat.add("transfer_energy_j", m.transfer_energy_j);
  flat.add("util_min", m.util_min);
  flat.add("util_max", m.util_max);
  flatten_curve(flat, report.day_curve);
  for (const cluster::PackageBreakdown& p : report.packages) {
    scoped(flat, "package[" + std::to_string(p.package) + "].", [&] {
      flat.add("dispatched", p.dispatched);
      flat.add("active", p.active);
      flatten(flat, p.report);
    });
  }
}

std::string literal(double value, bool integral) {
  if (integral) {
    return std::to_string(static_cast<std::uint64_t>(value));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

/// Compare a flattened report against its recorded tables — or, with
/// OPTIPLET_GOLDEN_DUMP set, print fresh tables named `name`.
void expect_golden(const Flat& flat, const char* name,
                   std::span<const Golden> fields,
                   std::span<const GoldenDigest> digests) {
  if (std::getenv("OPTIPLET_GOLDEN_DUMP") != nullptr) {
    std::printf("const Golden %s[] = {\n", name);
    for (const Flat::Entry& e : flat.entries()) {
      std::printf("    {\"%s\", %s},\n", e.field.c_str(),
                  literal(e.value, e.integral).c_str());
    }
    std::printf("};\nconst GoldenDigest %sDigests[] = {\n", name);
    for (const auto& [field, value] : flat.digests()) {
      std::printf("    {\"%s\", 0x%016llxULL},\n", field.c_str(),
                  static_cast<unsigned long long>(value));
    }
    std::printf("};\n\n");
    GTEST_SKIP() << "golden tables printed, nothing compared";
  }
  ASSERT_EQ(flat.entries().size(), fields.size())
      << "field list changed shape; first recorded field: "
      << (fields.empty() ? "" : fields.front().field);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const Flat::Entry& got = flat.entries()[i];
    ASSERT_EQ(got.field, fields[i].field) << "field order changed";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
              std::bit_cast<std::uint64_t>(fields[i].value))
        << got.field << ": recorded " << literal(fields[i].value, false)
        << ", got " << literal(got.value, false);
  }
  ASSERT_EQ(flat.digests().size(), digests.size());
  for (std::size_t i = 0; i < digests.size(); ++i) {
    ASSERT_EQ(flat.digests()[i].first, digests[i].field);
    EXPECT_EQ(flat.digests()[i].second, digests[i].value)
        << "digest of " << digests[i].field << " changed";
  }
}

ServingConfig config_of(const ServingSpec& spec) {
  ServingConfig config = make_serving_config(
      core::default_system_config(), accel::Architecture::kSiph2p5D, spec);
  config.record_batches = true;
  return config;
}

ServingReport run(const ServingSpec& spec) { return simulate(config_of(spec)); }

Flat flat_of(const ServingReport& report) {
  Flat flat;
  flatten(flat, report);
  return flat;
}

// ---------------------------------------------------------------- scenarios

/// Batch-granular deadline batching; both tenants need the one 7x7
/// chiplet, so they queue for the shared pool (granted priority-first),
/// and kSlaShed with two priority classes sheds part of the load.
ServingSpec batch_deadline_spec() {
  ServingSpec spec;
  spec.tenant_mix = "ResNet50+DenseNet121";
  spec.arrival_rps = 1500.0;
  spec.requests = 160;
  spec.policy = BatchPolicy::kDeadline;
  spec.max_batch = 4;
  spec.max_wait_s = 1.0e-3;
  spec.admission = AdmissionPolicy::kSlaShed;
  spec.priority_mix = "0+1";
  return spec;
}

/// Two tenants on disjoint chiplets dispatching concurrently: batch
/// windows collide on the interposer and wait for ReSiPI.
ServingSpec batch_conflict_spec() {
  ServingSpec spec;
  spec.tenant_mix = "MobileNetV2+MobileNetV2";
  spec.arrival_rps = 4000.0;
  spec.requests = 160;
  spec.policy = BatchPolicy::kDeadline;
  spec.max_batch = 4;
  spec.max_wait_s = 1.0e-3;
  return spec;
}

/// Layer-granular pipelining past capacity: ResNet50 and DenseNet121
/// hand the shared group over at layer boundaries, and MobileNetV2's
/// batch windows collide with those handoff retunes on the interposer.
ServingSpec layer_handoff_spec() {
  ServingSpec spec;
  spec.tenant_mix = "ResNet50+DenseNet121+MobileNetV2";
  spec.arrival_rps = 3000.0;
  spec.requests = 60;
  spec.pipeline = PipelineMode::kLayerGranular;
  return spec;
}

/// Two variable-length tenants under size batching with spread token
/// shapes: the per-phase (prefill + decode steps) pricing path.
ServingSpec token_size_spec() {
  ServingSpec spec;
  spec.tenant_mix = "TinyGPT+TinyGPT";
  spec.arrival_rps = 400.0;
  spec.requests = 80;
  spec.policy = BatchPolicy::kFixedSize;
  spec.max_batch = 4;
  spec.prefill_tokens = 64;
  spec.decode_tokens = 16;
  spec.token_spread = 0.5;
  return spec;
}

/// Continuous batching under a closed loop of users.
ServingSpec continuous_closed_spec() {
  ServingSpec spec;
  spec.tenant_mix = "TinyGPT+TinyGPT";
  spec.source = ArrivalSource::kClosedLoop;
  spec.users = 4;
  spec.think_s = 2.0e-3;
  spec.requests = 60;
  spec.policy = BatchPolicy::kContinuous;
  spec.max_batch = 4;
  spec.prefill_tokens = 32;
  spec.decode_tokens = 8;
  spec.token_spread = 0.25;
  return spec;
}

/// Elastic operation at full bore: EMA re-partitioning, a chiplet death,
/// a microring derate, retry, gating, and a sinusoidal carbon day curve.
ServingSpec elastic_spec() {
  ServingSpec spec;
  spec.tenant_mix = "LeNet5+MobileNetV2";
  spec.arrival_rps = 3000.0;
  spec.requests = 400;
  spec.policy = BatchPolicy::kDeadline;
  spec.admission = AdmissionPolicy::kSlaShed;
  spec.sla_s = 2.0e-3;
  spec.elastic.shift_threshold = 0.05;
  spec.elastic.ema_tau_s = 0.05;
  spec.elastic.cooldown_s = 0.05;
  spec.elastic.gate = true;
  spec.elastic.gate_after_s = 1.0e-4;
  spec.elastic.wake_s = 1.0e-5;
  spec.elastic.retry_max_attempts = 2;
  spec.elastic.retry_backoff_s = 1.0e-3;
  spec.elastic.curve_bucket_s = 0.02;
  spec.elastic.carbon_amplitude = 0.5;
  spec.elastic.carbon_period_s = 0.1;
  spec.elastic.faults.push_back({0.06, 2, 1.0, -1});
  spec.elastic.faults.push_back({0.09, -1, 0.8, -1});
  return spec;
}

/// Layer-granular pool shared by a transformer and two pipelined CNNs:
/// all three need the two dense chiplets, so that group is the shared
/// pool, and TinyGPT's tenant-level work (whole batches under
/// `gpt_policy`, or continuous iterations) contends with the CNNs' stage
/// waiters for it across two priority classes. The CNNs deadline-batch
/// as fixed-shape tenants: only TinyGPT carries token geometry.
ServingConfig mixed_layer_config(BatchPolicy gpt_policy) {
  ServingSpec spec;
  spec.tenant_mix = "TinyGPT+LeNet5+MobileNetV2";
  spec.arrival_rps = 900.0;
  spec.requests = 150;
  spec.pipeline = PipelineMode::kLayerGranular;
  spec.priority_mix = "0+1+0";
  spec.policy = BatchPolicy::kDeadline;
  spec.max_batch = 4;
  spec.max_wait_s = 1.0e-3;
  ServingConfig config = config_of(spec);
  config.tenants[0].batching.policy = gpt_policy;
  config.tenants[0].prefill_tokens = 32;
  config.tenants[0].decode_tokens = 4;
  config.tenants[0].token_spread = 0.5;
  return config;
}

/// A 3-package least-loaded rack, every tenant replicated twice, with a
/// day curve to merge.
cluster::ClusterConfig rack_config() {
  cluster::ClusterConfig config;
  config.system = core::default_system_config();
  config.serving.tenant_mix = "DenseNet121+MobileNetV2+ResNet50";
  config.serving.arrival_rps = 3000.0;
  config.serving.requests = 450;
  config.serving.policy = BatchPolicy::kDeadline;
  config.serving.max_batch = 4;
  config.serving.elastic.curve_bucket_s = 0.02;
  config.cluster.packages = 3;
  config.cluster.balancer = cluster::BalancerPolicy::kLeastLoaded;
  config.cluster.replication = 2;
  config.threads = 2;
  return config;
}

// ------------------------------------------------------- recorded values

// clang-format off
const Golden kBatchDeadline[] = {
    {"metrics.offered", 160},
    {"metrics.completed", 76},
    {"metrics.shed", 84},
    {"metrics.makespan_s", 0x1.594b28741e6d8p-3},
    {"metrics.throughput_rps", 0x1.c2c520a94e34ap+8},
    {"metrics.goodput_rps", 0x1.63defed6811c1p+6},
    {"metrics.mean_latency_s", 0x1.606626ad681edp-5},
    {"metrics.p50_s", 0x1.9262b7d5410f8p-5},
    {"metrics.p95_s", 0x1.0ef0bf788049ep-4},
    {"metrics.p99_s", 0x1.15a3bab2b131cp-4},
    {"metrics.max_latency_s", 0x1.15a3bab2b131cp-4},
    {"metrics.sla_violation_rate", 0x1.9af286bca1af3p-1},
    {"metrics.mean_batch", 0x1.a6f4de9bd37a7p+1},
    {"metrics.utilization", 0x1.bdfaf9654ed6p-2},
    {"metrics.energy_j", 0x1.9b65683798bebp+1},
    {"metrics.energy_per_request_j", 0x1.5a7057c3075d3p-5},
    {"metrics.resipi_conflicts", 0},
    {"metrics.resipi_wait_s", 0x0p+0},
    {"metrics.shared_handoffs", 0},
    {"metrics.handoff_resipi_s", 0x0p+0},
    {"metrics.service_cache_hits", 308},
    {"metrics.service_cache_misses", 8},
    {"metrics.p99_hi_s", 0x1.15a3bab2b131cp-4},
    {"metrics.p99_lo_s", 0x1.08a91935a6d28p-4},
    {"metrics.first_arrival_abs_s", 0x1.e9d5c52605ec4p-14},
    {"metrics.last_completion_abs_s", 0x1.5988632cc32e4p-3},
    {"metrics.sim_events", 185},
    {"metrics.sim_event_queue_peak", 4},
    {"metrics.ttft_p99_s", 0x0p+0},
    {"metrics.decode_tps", 0x0p+0},
    {"metrics.kv_peak_bytes", 0},
    {"metrics.abandoned", 0},
    {"metrics.retries", 0},
    {"metrics.repartitions", 0},
    {"metrics.repartition_resipi_s", 0x0p+0},
    {"metrics.gate_events", 0},
    {"metrics.gated_idle_s", 0x0p+0},
    {"metrics.faults_injected", 0},
    {"metrics.carbon_g", 0x1.76763e8c431fdp-12},
    {"tenants.size", 2},
    {"tenants[0].priority", 0},
    {"tenants[0].offered", 80},
    {"tenants[0].completed", 38},
    {"tenants[0].shed", 42},
    {"tenants[0].batches", 12},
    {"tenants[0].throughput_rps", 0x1.c2c520a94e34ap+7},
    {"tenants[0].goodput_rps", 0x1.1cb265786749bp+5},
    {"tenants[0].mean_latency_s", 0x1.68f3841221317p-5},
    {"tenants[0].p50_s", 0x1.9b77089193622p-5},
    {"tenants[0].p95_s", 0x1.10f77c2917a36p-4},
    {"tenants[0].p99_s", 0x1.15a3bab2b131cp-4},
    {"tenants[0].max_latency_s", 0x1.15a3bab2b131cp-4},
    {"tenants[0].sla_s", 0x1.874bcd8edfe6dp-6},
    {"tenants[0].sla_violation_rate", 0x1.af286bca1af28p-1},
    {"tenants[0].mean_batch", 0x1.9555555555555p+1},
    {"tenants[0].busy_s", 0x1.5aaf6c0de52cp-4},
    {"tenants[0].utilization", 0x1.0108222c8a6c7p-1},
    {"tenants[0].energy_j", 0x1.be4f02b97e6d5p+0},
    {"tenants[0].energy_per_request_j", 0x1.77d6beed0c263p-5},
    {"tenants[0].shared_wait_s", 0x1.53ce51659b448p-4},
    {"tenants[0].resipi_wait_s", 0x0p+0},
    {"tenants[0].resipi_conflicts", 0},
    {"tenants[0].shared_handoffs", 0},
    {"tenants[0].handoff_resipi_s", 0x0p+0},
    {"tenants[0].ttft_p99_s", 0x0p+0},
    {"tenants[0].decode_tps", 0x0p+0},
    {"tenants[0].kv_peak_bytes", 0},
    {"tenants[0].abandoned", 0},
    {"tenants[0].retries", 0},
    {"tenants[0].gate_events", 0},
    {"tenants[0].gated_idle_s", 0x0p+0},
    {"tenants[1].priority", 1},
    {"tenants[1].offered", 80},
    {"tenants[1].completed", 38},
    {"tenants[1].shed", 42},
    {"tenants[1].batches", 11},
    {"tenants[1].throughput_rps", 0x1.c2c520a94e34ap+7},
    {"tenants[1].goodput_rps", 0x1.ab0b98349aee8p+5},
    {"tenants[1].mean_latency_s", 0x1.57d8c948af0bdp-5},
    {"tenants[1].p50_s", 0x1.90e117bb64e54p-5},
    {"tenants[1].p95_s", 0x1.086a03e487e37p-4},
    {"tenants[1].p99_s", 0x1.08a91935a6d28p-4},
    {"tenants[1].max_latency_s", 0x1.08a91935a6d28p-4},
    {"tenants[1].sla_s", 0x1.908b6f312e616p-6},
    {"tenants[1].sla_violation_rate", 0x1.86bca1af286bdp-1},
    {"tenants[1].mean_batch", 0x1.ba2e8ba2e8ba3p+1},
    {"tenants[1].busy_s", 0x1.53ce51659b448p-4},
    {"tenants[1].utilization", 0x1.f7dce89761195p-2},
    {"tenants[1].energy_j", 0x1.6b78aefed124ap+0},
    {"tenants[1].energy_per_request_j", 0x1.3214c9425f474p-5},
    {"tenants[1].shared_wait_s", 0x1.4410bb11fbeeap-4},
    {"tenants[1].resipi_wait_s", 0x0p+0},
    {"tenants[1].resipi_conflicts", 0},
    {"tenants[1].shared_handoffs", 0},
    {"tenants[1].handoff_resipi_s", 0x0p+0},
    {"tenants[1].ttft_p99_s", 0x0p+0},
    {"tenants[1].decode_tps", 0x0p+0},
    {"tenants[1].kv_peak_bytes", 0},
    {"tenants[1].abandoned", 0},
    {"tenants[1].retries", 0},
    {"tenants[1].gate_events", 0},
    {"tenants[1].gated_idle_s", 0x0p+0},
    {"classes.size", 2},
    {"classes[0].priority", 0},
    {"classes[0].offered", 80},
    {"classes[0].completed", 38},
    {"classes[0].shed", 42},
    {"classes[0].abandoned", 0},
    {"classes[0].p99_s", 0x1.15a3bab2b131cp-4},
    {"classes[0].sla_violation_rate", 0x1.af286bca1af28p-1},
    {"classes[0].goodput_rps", 0x1.1cb265786749bp+5},
    {"classes[1].priority", 1},
    {"classes[1].offered", 80},
    {"classes[1].completed", 38},
    {"classes[1].shed", 42},
    {"classes[1].abandoned", 0},
    {"classes[1].p99_s", 0x1.08a91935a6d28p-4},
    {"classes[1].sla_violation_rate", 0x1.86bca1af286bdp-1},
    {"classes[1].goodput_rps", 0x1.ab0b98349aee8p+5},
    {"day_curve.size", 0},
    {"batches.size", 23},
};

const GoldenDigest kBatchDeadlineDigests[] = {
    {"batches", 0x6e758500aa41b3feULL},
    {"tenant_latencies", 0x49ea90407f49e2f4ULL},
    {"chiplet_busy_s", 0x64d94966fa646f75ULL},
    {"ledger", 0xd83bc591cf757e34ULL},
};

const Golden kBatchConflict[] = {
    {"metrics.offered", 160},
    {"metrics.completed", 160},
    {"metrics.shed", 0},
    {"metrics.makespan_s", 0x1.712c78ed2a69ap-5},
    {"metrics.throughput_rps", 0x1.bbcd4997ea5d6p+11},
    {"metrics.goodput_rps", 0x1.bbcd4997ea5d6p+11},
    {"metrics.mean_latency_s", 0x1.bfbb807ce6b1dp-10},
    {"metrics.p50_s", 0x1.c127837b021ep-10},
    {"metrics.p95_s", 0x1.419be958f87p-9},
    {"metrics.p99_s", 0x1.61024dd0d410bp-9},
    {"metrics.max_latency_s", 0x1.96cdee2b6af0cp-9},
    {"metrics.sla_violation_rate", 0x0p+0},
    {"metrics.mean_batch", 0x1.5555555555555p+1},
    {"metrics.utilization", 0x1.98936590432eap-2},
    {"metrics.energy_j", 0x1.1b3c08893d86ep+0},
    {"metrics.energy_per_request_j", 0x1.c52cda752f3e3p-8},
    {"metrics.resipi_conflicts", 6},
    {"metrics.resipi_wait_s", 0x1.c512a70438ep-13},
    {"metrics.shared_handoffs", 0},
    {"metrics.handoff_resipi_s", 0x0p+0},
    {"metrics.service_cache_hits", 54},
    {"metrics.service_cache_misses", 8},
    {"metrics.p99_hi_s", 0x1.61024dd0d410bp-9},
    {"metrics.p99_lo_s", 0x1.61024dd0d410bp-9},
    {"metrics.first_arrival_abs_s", 0x1.6f6053dc84714p-15},
    {"metrics.last_completion_abs_s", 0x1.71885102218acp-5},
    {"metrics.sim_events", 263},
    {"metrics.sim_event_queue_peak", 5},
    {"metrics.ttft_p99_s", 0x0p+0},
    {"metrics.decode_tps", 0x0p+0},
    {"metrics.kv_peak_bytes", 0},
    {"metrics.abandoned", 0},
    {"metrics.retries", 0},
    {"metrics.repartitions", 0},
    {"metrics.repartition_resipi_s", 0x0p+0},
    {"metrics.gate_events", 0},
    {"metrics.gated_idle_s", 0x0p+0},
    {"metrics.faults_injected", 0},
    {"metrics.carbon_g", 0x1.01ce6c596ba88p-13},
    {"tenants.size", 2},
    {"tenants[0].priority", 0},
    {"tenants[0].offered", 80},
    {"tenants[0].completed", 80},
    {"tenants[0].shed", 0},
    {"tenants[0].batches", 30},
    {"tenants[0].throughput_rps", 0x1.bbcd4997ea5d6p+10},
    {"tenants[0].goodput_rps", 0x1.bbcd4997ea5d6p+10},
    {"tenants[0].mean_latency_s", 0x1.b7a1c02c95debp-10},
    {"tenants[0].p50_s", 0x1.c64cba7e46b6p-10},
    {"tenants[0].p95_s", 0x1.2cf0e34b0f61p-9},
    {"tenants[0].p99_s", 0x1.58abf94c59f7p-9},
    {"tenants[0].max_latency_s", 0x1.58abf94c59f7p-9},
    {"tenants[0].sla_s", 0x1.5eda12dda762dp-8},
    {"tenants[0].sla_violation_rate", 0x0p+0},
    {"tenants[0].mean_batch", 0x1.5555555555555p+1},
    {"tenants[0].busy_s", 0x1.d65718451dfccp-6},
    {"tenants[0].utilization", 0x1.4627272e64d97p-1},
    {"tenants[0].energy_j", 0x1.2c8c01754cfp-1},
    {"tenants[0].energy_per_request_j", 0x1.e0e0025547e66p-8},
    {"tenants[0].shared_wait_s", 0x0p+0},
    {"tenants[0].resipi_wait_s", 0x1.d55f0c366p-16},
    {"tenants[0].resipi_conflicts", 2},
    {"tenants[0].shared_handoffs", 0},
    {"tenants[0].handoff_resipi_s", 0x0p+0},
    {"tenants[0].ttft_p99_s", 0x0p+0},
    {"tenants[0].decode_tps", 0x0p+0},
    {"tenants[0].kv_peak_bytes", 0},
    {"tenants[0].abandoned", 0},
    {"tenants[0].retries", 0},
    {"tenants[0].gate_events", 0},
    {"tenants[0].gated_idle_s", 0x0p+0},
    {"tenants[1].priority", 0},
    {"tenants[1].offered", 80},
    {"tenants[1].completed", 80},
    {"tenants[1].shed", 0},
    {"tenants[1].batches", 30},
    {"tenants[1].throughput_rps", 0x1.bbcd4997ea5d6p+10},
    {"tenants[1].goodput_rps", 0x1.bbcd4997ea5d6p+10},
    {"tenants[1].mean_latency_s", 0x1.c7d540cd3784bp-10},
    {"tenants[1].p50_s", 0x1.c048b5c65b0c8p-10},
    {"tenants[1].p95_s", 0x1.4cd668af89d92p-9},
    {"tenants[1].p99_s", 0x1.96cdee2b6af0cp-9},
    {"tenants[1].max_latency_s", 0x1.96cdee2b6af0cp-9},
    {"tenants[1].sla_s", 0x1.6b1e8096432cep-8},
    {"tenants[1].sla_violation_rate", 0x0p+0},
    {"tenants[1].mean_batch", 0x1.5555555555555p+1},
    {"tenants[1].busy_s", 0x1.d8e43b0c55cb1p-6},
    {"tenants[1].utilization", 0x1.47ec105aef17p-1},
    {"tenants[1].energy_j", 0x1.029bb2bebfc65p-1},
    {"tenants[1].energy_per_request_j", 0x1.9dc5eacacc708p-8},
    {"tenants[1].shared_wait_s", 0x0p+0},
    {"tenants[1].resipi_wait_s", 0x1.8a66c57d6cep-13},
    {"tenants[1].resipi_conflicts", 4},
    {"tenants[1].shared_handoffs", 0},
    {"tenants[1].handoff_resipi_s", 0x0p+0},
    {"tenants[1].ttft_p99_s", 0x0p+0},
    {"tenants[1].decode_tps", 0x0p+0},
    {"tenants[1].kv_peak_bytes", 0},
    {"tenants[1].abandoned", 0},
    {"tenants[1].retries", 0},
    {"tenants[1].gate_events", 0},
    {"tenants[1].gated_idle_s", 0x0p+0},
    {"classes.size", 1},
    {"classes[0].priority", 0},
    {"classes[0].offered", 160},
    {"classes[0].completed", 160},
    {"classes[0].shed", 0},
    {"classes[0].abandoned", 0},
    {"classes[0].p99_s", 0x1.61024dd0d410bp-9},
    {"classes[0].sla_violation_rate", 0x0p+0},
    {"classes[0].goodput_rps", 0x1.bbcd4997ea5d6p+11},
    {"day_curve.size", 0},
    {"batches.size", 60},
};

const GoldenDigest kBatchConflictDigests[] = {
    {"batches", 0x4e0cc621ac8fe1bfULL},
    {"tenant_latencies", 0x8f6bf19c72ce5e1bULL},
    {"chiplet_busy_s", 0x4db79b5f2fe2e983ULL},
    {"ledger", 0x2dddbda643353c9eULL},
};

const Golden kLayerHandoff[] = {
    {"metrics.offered", 60},
    {"metrics.completed", 60},
    {"metrics.shed", 0},
    {"metrics.makespan_s", 0x1.ae49c6a0311f5p-5},
    {"metrics.throughput_rps", 0x1.1d9377e374f48p+10},
    {"metrics.goodput_rps", 0x1.b5e21e3aa243bp+9},
    {"metrics.mean_latency_s", 0x1.852961268ed03p-7},
    {"metrics.p50_s", 0x1.9c29365aa2c4p-8},
    {"metrics.p95_s", 0x1.24051589a7c91p-5},
    {"metrics.p99_s", 0x1.2ef17b4118e98p-5},
    {"metrics.max_latency_s", 0x1.2ef17b4118e98p-5},
    {"metrics.sla_violation_rate", 0x1.ddddddddddddep-3},
    {"metrics.mean_batch", 0x1p+0},
    {"metrics.utilization", 0x1.3a7fdd9bbca7cp-1},
    {"metrics.energy_j", 0x1.0c40689b4184ap+1},
    {"metrics.energy_per_request_j", 0x1.1e2291b6ac493p-5},
    {"metrics.resipi_conflicts", 24},
    {"metrics.resipi_wait_s", 0x1.5ca03abb15d4ap-11},
    {"metrics.shared_handoffs", 839},
    {"metrics.handoff_resipi_s", 0x1.b7e0ac7da1ed4p-11},
    {"metrics.service_cache_hits", 63},
    {"metrics.service_cache_misses", 3},
    {"metrics.p99_hi_s", 0x1.2ef17b4118e98p-5},
    {"metrics.p99_lo_s", 0x1.2ef17b4118e98p-5},
    {"metrics.first_arrival_abs_s", 0x1.6f6053dc84714p-14},
    {"metrics.last_completion_abs_s", 0x1.af0176ca1f619p-5},
    {"metrics.sim_events", 3740},
    {"metrics.sim_event_queue_peak", 7},
    {"metrics.ttft_p99_s", 0x0p+0},
    {"metrics.decode_tps", 0x0p+0},
    {"metrics.kv_peak_bytes", 0},
    {"metrics.abandoned", 0},
    {"metrics.retries", 0},
    {"metrics.repartitions", 0},
    {"metrics.repartition_resipi_s", 0x0p+0},
    {"metrics.gate_events", 0},
    {"metrics.gated_idle_s", 0x0p+0},
    {"metrics.faults_injected", 0},
    {"metrics.carbon_g", 0x1.e8564e048fd92p-13},
    {"tenants.size", 3},
    {"tenants[0].priority", 0},
    {"tenants[0].offered", 20},
    {"tenants[0].completed", 20},
    {"tenants[0].shed", 0},
    {"tenants[0].batches", 20},
    {"tenants[0].throughput_rps", 0x1.7cc49fd9f145fp+8},
    {"tenants[0].goodput_rps", 0x1.7cc49fd9f145fp+8},
    {"tenants[0].mean_latency_s", 0x1.ca52609eaacc2p-8},
    {"tenants[0].p50_s", 0x1.9c29365aa2c4p-8},
    {"tenants[0].p95_s", 0x1.59b0e7a3fca62p-7},
    {"tenants[0].p99_s", 0x1.5f57f90b8f2a8p-7},
    {"tenants[0].max_latency_s", 0x1.5f57f90b8f2a8p-7},
    {"tenants[0].sla_s", 0x1.8d79202fc00e6p-6},
    {"tenants[0].sla_violation_rate", 0x0p+0},
    {"tenants[0].mean_batch", 0x1p+0},
    {"tenants[0].busy_s", 0x1.8fe5e1f9fa59cp-5},
    {"tenants[0].utilization", 0x1.dbd6b41d0a7d2p-1},
    {"tenants[0].energy_j", 0x1.0932e44c49a1bp+0},
    {"tenants[0].energy_per_request_j", 0x1.a8516d46dc35ep-5},
    {"tenants[0].shared_wait_s", 0x1.100c83ec01768p-6},
    {"tenants[0].resipi_wait_s", 0x1.5ac8c6ff17f9p-12},
    {"tenants[0].resipi_conflicts", 9},
    {"tenants[0].shared_handoffs", 296},
    {"tenants[0].handoff_resipi_s", 0x1.3660e51d25ab8p-12},
    {"tenants[0].ttft_p99_s", 0x0p+0},
    {"tenants[0].decode_tps", 0x0p+0},
    {"tenants[0].kv_peak_bytes", 0},
    {"tenants[0].abandoned", 0},
    {"tenants[0].retries", 0},
    {"tenants[0].gate_events", 0},
    {"tenants[0].gated_idle_s", 0x0p+0},
    {"tenants[1].priority", 0},
    {"tenants[1].offered", 20},
    {"tenants[1].completed", 20},
    {"tenants[1].shed", 0},
    {"tenants[1].batches", 20},
    {"tenants[1].throughput_rps", 0x1.7cc49fd9f145fp+8},
    {"tenants[1].goodput_rps", 0x1.c8ebf30587ed9p+6},
    {"tenants[1].mean_latency_s", 0x1.aeb0afdf08c8dp-6},
    {"tenants[1].p50_s", 0x1.de2772a081d4ep-6},
    {"tenants[1].p95_s", 0x1.2c3ac0596f5abp-5},
    {"tenants[1].p99_s", 0x1.2ef17b4118e98p-5},
    {"tenants[1].max_latency_s", 0x1.2ef17b4118e98p-5},
    {"tenants[1].sla_s", 0x1.5a30a530d9ddp-6},
    {"tenants[1].sla_violation_rate", 0x1.6666666666666p-1},
    {"tenants[1].mean_batch", 0x1p+0},
    {"tenants[1].busy_s", 0x1.5ce29bb88b186p-5},
    {"tenants[1].utilization", 0x1.9f237865891a6p-1},
    {"tenants[1].energy_j", 0x1.bf9a364790433p-1},
    {"tenants[1].energy_per_request_j", 0x1.6614f8394035cp-5},
    {"tenants[1].shared_wait_s", 0x1.6e30dfde7112fp-5},
    {"tenants[1].resipi_wait_s", 0x1.044a3b7741d14p-12},
    {"tenants[1].resipi_conflicts", 8},
    {"tenants[1].shared_handoffs", 329},
    {"tenants[1].handoff_resipi_s", 0x1.58fb43d89ce66p-12},
    {"tenants[1].ttft_p99_s", 0x0p+0},
    {"tenants[1].decode_tps", 0x0p+0},
    {"tenants[1].kv_peak_bytes", 0},
    {"tenants[1].abandoned", 0},
    {"tenants[1].retries", 0},
    {"tenants[1].gate_events", 0},
    {"tenants[1].gated_idle_s", 0x0p+0},
    {"tenants[2].priority", 0},
    {"tenants[2].offered", 20},
    {"tenants[2].completed", 20},
    {"tenants[2].shed", 0},
    {"tenants[2].batches", 20},
    {"tenants[2].throughput_rps", 0x1.7cc49fd9f145fp+8},
    {"tenants[2].goodput_rps", 0x1.7cc49fd9f145fp+8},
    {"tenants[2].mean_latency_s", 0x1.33c64d9915e45p-9},
    {"tenants[2].p50_s", 0x1.1723618138ea8p-9},
    {"tenants[2].p95_s", 0x1.0b941cfb7e6c4p-8},
    {"tenants[2].p99_s", 0x1.12c5bbade4164p-8},
    {"tenants[2].max_latency_s", 0x1.12c5bbade4164p-8},
    {"tenants[2].sla_s", 0x1.243c1b8b0ffap-8},
    {"tenants[2].sla_violation_rate", 0x0p+0},
    {"tenants[2].mean_batch", 0x1p+0},
    {"tenants[2].busy_s", 0x1.2b3f450b3c074p-7},
    {"tenants[2].utilization", 0x1.6413016d469a1p-3},
    {"tenants[2].energy_j", 0x1.66874a2ef324fp-3},
    {"tenants[2].energy_per_request_j", 0x1.1ed2a1bf28ea6p-7},
    {"tenants[2].shared_wait_s", 0x1.c375034c9e3cbp-6},
    {"tenants[2].resipi_wait_s", 0x1.68b5cbff477cp-14},
    {"tenants[2].resipi_conflicts", 7},
    {"tenants[2].shared_handoffs", 214},
    {"tenants[2].handoff_resipi_s", 0x1.c0ca600b02916p-13},
    {"tenants[2].ttft_p99_s", 0x0p+0},
    {"tenants[2].decode_tps", 0x0p+0},
    {"tenants[2].kv_peak_bytes", 0},
    {"tenants[2].abandoned", 0},
    {"tenants[2].retries", 0},
    {"tenants[2].gate_events", 0},
    {"tenants[2].gated_idle_s", 0x0p+0},
    {"classes.size", 1},
    {"classes[0].priority", 0},
    {"classes[0].offered", 60},
    {"classes[0].completed", 60},
    {"classes[0].shed", 0},
    {"classes[0].abandoned", 0},
    {"classes[0].p99_s", 0x1.2ef17b4118e98p-5},
    {"classes[0].sla_violation_rate", 0x1.ddddddddddddep-3},
    {"classes[0].goodput_rps", 0x1.b5e21e3aa243bp+9},
    {"day_curve.size", 0},
    {"batches.size", 3680},
};

const GoldenDigest kLayerHandoffDigests[] = {
    {"batches", 0xb67ef2c94e18a19eULL},
    {"tenant_latencies", 0xf0cb5841bae521abULL},
    {"chiplet_busy_s", 0x442d51b4ce649809ULL},
    {"ledger", 0xf5c6bfc31522d5eeULL},
};

const Golden kTokenSize[] = {
    {"metrics.offered", 80},
    {"metrics.completed", 80},
    {"metrics.shed", 0},
    {"metrics.makespan_s", 0x1.0f54fbe5c5d03p-2},
    {"metrics.throughput_rps", 0x1.2deb00c3df60fp+8},
    {"metrics.goodput_rps", 0x1.2deb00c3df60fp+8},
    {"metrics.mean_latency_s", 0x1.46be777eaafb5p-5},
    {"metrics.p50_s", 0x1.3e73f178d2c64p-5},
    {"metrics.p95_s", 0x1.ddc4eb6a58decp-5},
    {"metrics.p99_s", 0x1.09f0f7c2fb1c1p-4},
    {"metrics.max_latency_s", 0x1.09f0f7c2fb1c1p-4},
    {"metrics.sla_violation_rate", 0x0p+0},
    {"metrics.mean_batch", 0x1p+2},
    {"metrics.utilization", 0x1.8d13b2c20f959p-3},
    {"metrics.energy_j", 0x1.76a708a76beabp+2},
    {"metrics.energy_per_request_j", 0x1.2bb8d3b923222p-4},
    {"metrics.resipi_conflicts", 0},
    {"metrics.resipi_wait_s", 0x0p+0},
    {"metrics.shared_handoffs", 0},
    {"metrics.handoff_resipi_s", 0x0p+0},
    {"metrics.service_cache_hits", 446},
    {"metrics.service_cache_misses", 26},
    {"metrics.p99_hi_s", 0x1.09f0f7c2fb1c1p-4},
    {"metrics.p99_lo_s", 0x1.09f0f7c2fb1c1p-4},
    {"metrics.first_arrival_abs_s", 0x1.cb3868d3a58d8p-12},
    {"metrics.last_completion_abs_s", 0x1.0fc7c9fffab99p-2},
    {"metrics.sim_events", 100},
    {"metrics.sim_event_queue_peak", 4},
    {"metrics.ttft_p99_s", 0x1.b9dfe6d178c32p-5},
    {"metrics.decode_tps", 0x1.384be19767db8p+12},
    {"metrics.kv_peak_bytes", 3268608},
    {"metrics.abandoned", 0},
    {"metrics.retries", 0},
    {"metrics.repartitions", 0},
    {"metrics.repartition_resipi_s", 0x0p+0},
    {"metrics.gate_events", 0},
    {"metrics.gated_idle_s", 0x0p+0},
    {"metrics.faults_injected", 0},
    {"metrics.carbon_g", 0x1.55045ab51014ap-11},
    {"tenants.size", 2},
    {"tenants[0].priority", 0},
    {"tenants[0].offered", 40},
    {"tenants[0].completed", 40},
    {"tenants[0].shed", 0},
    {"tenants[0].batches", 10},
    {"tenants[0].throughput_rps", 0x1.2deb00c3df60fp+7},
    {"tenants[0].goodput_rps", 0x1.2deb00c3df60fp+7},
    {"tenants[0].mean_latency_s", 0x1.34b6f5922e7a6p-5},
    {"tenants[0].p50_s", 0x1.2f03c29f3963bp-5},
    {"tenants[0].p95_s", 0x1.c84bd3d979ebp-5},
    {"tenants[0].p99_s", 0x1.ebd5342768868p-5},
    {"tenants[0].max_latency_s", 0x1.ebd5342768868p-5},
    {"tenants[0].sla_s", 0x1.ef901ccfec2p-4},
    {"tenants[0].sla_violation_rate", 0x0p+0},
    {"tenants[0].mean_batch", 0x1p+2},
    {"tenants[0].busy_s", 0x1.a984f03610fd8p-3},
    {"tenants[0].utilization", 0x1.91798a3152887p-1},
    {"tenants[0].energy_j", 0x1.7472adce3e539p+1},
    {"tenants[0].energy_per_request_j", 0x1.29f557d831dc7p-4},
    {"tenants[0].shared_wait_s", 0x0p+0},
    {"tenants[0].resipi_wait_s", 0x0p+0},
    {"tenants[0].resipi_conflicts", 0},
    {"tenants[0].shared_handoffs", 0},
    {"tenants[0].handoff_resipi_s", 0x0p+0},
    {"tenants[0].ttft_p99_s", 0x1.7012682f3c05cp-5},
    {"tenants[0].decode_tps", 0x1.4233fe043b964p+11},
    {"tenants[0].kv_peak_bytes", 3268608},
    {"tenants[0].abandoned", 0},
    {"tenants[0].retries", 0},
    {"tenants[0].gate_events", 0},
    {"tenants[0].gated_idle_s", 0x0p+0},
    {"tenants[1].priority", 0},
    {"tenants[1].offered", 40},
    {"tenants[1].completed", 40},
    {"tenants[1].shed", 0},
    {"tenants[1].batches", 10},
    {"tenants[1].throughput_rps", 0x1.2deb00c3df60fp+7},
    {"tenants[1].goodput_rps", 0x1.2deb00c3df60fp+7},
    {"tenants[1].mean_latency_s", 0x1.58c5f96b277c5p-5},
    {"tenants[1].p50_s", 0x1.5e6ce431ea444p-5},
    {"tenants[1].p95_s", 0x1.000ce191adf24p-4},
    {"tenants[1].p99_s", 0x1.09f0f7c2fb1c1p-4},
    {"tenants[1].max_latency_s", 0x1.09f0f7c2fb1c1p-4},
    {"tenants[1].sla_s", 0x1.ef901ccfec2p-4},
    {"tenants[1].sla_violation_rate", 0x0p+0},
    {"tenants[1].mean_batch", 0x1p+2},
    {"tenants[1].busy_s", 0x1.a032669b86c7ep-3},
    {"tenants[1].utilization", 0x1.88addb52cca2bp-1},
    {"tenants[1].energy_j", 0x1.6a702a9d6d3d1p+1},
    {"tenants[1].energy_per_request_j", 0x1.21f3554abdca7p-4},
    {"tenants[1].shared_wait_s", 0x0p+0},
    {"tenants[1].resipi_wait_s", 0x0p+0},
    {"tenants[1].resipi_conflicts", 0},
    {"tenants[1].shared_handoffs", 0},
    {"tenants[1].handoff_resipi_s", 0x0p+0},
    {"tenants[1].ttft_p99_s", 0x1.b9dfe6d178c32p-5},
    {"tenants[1].decode_tps", 0x1.2e63c52a9420bp+11},
    {"tenants[1].kv_peak_bytes", 3014656},
    {"tenants[1].abandoned", 0},
    {"tenants[1].retries", 0},
    {"tenants[1].gate_events", 0},
    {"tenants[1].gated_idle_s", 0x0p+0},
    {"classes.size", 1},
    {"classes[0].priority", 0},
    {"classes[0].offered", 80},
    {"classes[0].completed", 80},
    {"classes[0].shed", 0},
    {"classes[0].abandoned", 0},
    {"classes[0].p99_s", 0x1.09f0f7c2fb1c1p-4},
    {"classes[0].sla_violation_rate", 0x0p+0},
    {"classes[0].goodput_rps", 0x1.2deb00c3df60fp+8},
    {"day_curve.size", 0},
    {"batches.size", 20},
};

const GoldenDigest kTokenSizeDigests[] = {
    {"batches", 0x111b6d7f5066e92fULL},
    {"tenant_latencies", 0x95761989ad7d5467ULL},
    {"chiplet_busy_s", 0x72f28c5c8de8c061ULL},
    {"ledger", 0x4cc465a2d7177fbcULL},
};

const Golden kContinuousClosed[] = {
    {"metrics.offered", 60},
    {"metrics.completed", 60},
    {"metrics.shed", 0},
    {"metrics.makespan_s", 0x1.3a921a3014b35p-4},
    {"metrics.throughput_rps", 0x1.86a0a9ea52aa7p+9},
    {"metrics.goodput_rps", 0x1.86a0a9ea52aa7p+9},
    {"metrics.mean_latency_s", 0x1.f736b344e5c81p-8},
    {"metrics.p50_s", 0x1.ef128bcdf969p-8},
    {"metrics.p95_s", 0x1.3ee52f67e245dp-7},
    {"metrics.p99_s", 0x1.651956637167p-7},
    {"metrics.max_latency_s", 0x1.651956637167p-7},
    {"metrics.sla_violation_rate", 0x0p+0},
    {"metrics.mean_batch", 0x1.397829cbc14e6p+0},
    {"metrics.utilization", 0x1.ef76396d0ca1ap-3},
    {"metrics.energy_j", 0x1.19eea35b5903fp+1},
    {"metrics.energy_per_request_j", 0x1.2cba47d8e77bbp-5},
    {"metrics.resipi_conflicts", 1},
    {"metrics.resipi_wait_s", 0x1.0bc86b7f7d928p-16},
    {"metrics.shared_handoffs", 0},
    {"metrics.handoff_resipi_s", 0x0p+0},
    {"metrics.service_cache_hits", 190},
    {"metrics.service_cache_misses", 43},
    {"metrics.p99_hi_s", 0x1.651956637167p-7},
    {"metrics.p99_lo_s", 0x1.651956637167p-7},
    {"metrics.first_arrival_abs_s", 0x1.4dbd82c99c6d6p-13},
    {"metrics.last_completion_abs_s", 0x1.3b38f8f179818p-4},
    {"metrics.sim_events", 275},
    {"metrics.sim_event_queue_peak", 8},
    {"metrics.ttft_p99_s", 0x1.78aed8e23738p-9},
    {"metrics.decode_tps", 0x1.8841554a3b8b2p+12},
    {"metrics.kv_peak_bytes", 1449984},
    {"metrics.abandoned", 0},
    {"metrics.retries", 0},
    {"metrics.repartitions", 0},
    {"metrics.repartition_resipi_s", 0x0p+0},
    {"metrics.gate_events", 0},
    {"metrics.gated_idle_s", 0x0p+0},
    {"metrics.faults_injected", 0},
    {"metrics.carbon_g", 0x1.009ef5a132c24p-12},
    {"tenants.size", 2},
    {"tenants[0].priority", 0},
    {"tenants[0].offered", 30},
    {"tenants[0].completed", 30},
    {"tenants[0].shed", 0},
    {"tenants[0].batches", 24},
    {"tenants[0].throughput_rps", 0x1.86a0a9ea52aa7p+8},
    {"tenants[0].goodput_rps", 0x1.86a0a9ea52aa7p+8},
    {"tenants[0].mean_latency_s", 0x1.f8837dc6c9e04p-8},
    {"tenants[0].p50_s", 0x1.ef128bcdf969p-8},
    {"tenants[0].p95_s", 0x1.4621bcf457dbp-7},
    {"tenants[0].p99_s", 0x1.651956637167p-7},
    {"tenants[0].max_latency_s", 0x1.651956637167p-7},
    {"tenants[0].sla_s", 0x1.ed779cbf4f6cp-5},
    {"tenants[0].sla_violation_rate", 0x0p+0},
    {"tenants[0].mean_batch", 0x1.4p+0},
    {"tenants[0].busy_s", 0x1.3622f701c2216p-4},
    {"tenants[0].utilization", 0x1.f8c86eeef3374p-1},
    {"tenants[0].energy_j", 0x1.1a6170a77911bp+0},
    {"tenants[0].energy_per_request_j", 0x1.2d34bc6e5f01dp-5},
    {"tenants[0].shared_wait_s", 0x0p+0},
    {"tenants[0].resipi_wait_s", 0x1.0bc86b7f7d928p-16},
    {"tenants[0].resipi_conflicts", 1},
    {"tenants[0].shared_handoffs", 0},
    {"tenants[0].handoff_resipi_s", 0x0p+0},
    {"tenants[0].ttft_p99_s", 0x1.3c6cf39b1882p-9},
    {"tenants[0].decode_tps", 0x1.8d235769f62d4p+11},
    {"tenants[0].kv_peak_bytes", 1449984},
    {"tenants[0].abandoned", 0},
    {"tenants[0].retries", 0},
    {"tenants[0].gate_events", 0},
    {"tenants[0].gated_idle_s", 0x0p+0},
    {"tenants[1].priority", 0},
    {"tenants[1].offered", 30},
    {"tenants[1].completed", 30},
    {"tenants[1].shed", 0},
    {"tenants[1].batches", 25},
    {"tenants[1].throughput_rps", 0x1.86a0a9ea52aa7p+8},
    {"tenants[1].goodput_rps", 0x1.86a0a9ea52aa7p+8},
    {"tenants[1].mean_latency_s", 0x1.f5e9e8c301afap-8},
    {"tenants[1].p50_s", 0x1.e7eb235f00e8p-8},
    {"tenants[1].p95_s", 0x1.3b7f7b50454c8p-7},
    {"tenants[1].p99_s", 0x1.3ee52f67e245dp-7},
    {"tenants[1].max_latency_s", 0x1.3ee52f67e245dp-7},
    {"tenants[1].sla_s", 0x1.ed779cbf4f6cp-5},
    {"tenants[1].sla_violation_rate", 0x0p+0},
    {"tenants[1].mean_batch", 0x1.3333333333333p+0},
    {"tenants[1].busy_s", 0x1.2aaecf89cf9e3p-4},
    {"tenants[1].utilization", 0x1.e62403eb260cp-1},
    {"tenants[1].energy_j", 0x1.11ad0c0a1fb6p+0},
    {"tenants[1].energy_per_request_j", 0x1.23ebc89355066p-5},
    {"tenants[1].shared_wait_s", 0x0p+0},
    {"tenants[1].resipi_wait_s", 0x0p+0},
    {"tenants[1].resipi_conflicts", 0},
    {"tenants[1].shared_handoffs", 0},
    {"tenants[1].handoff_resipi_s", 0x0p+0},
    {"tenants[1].ttft_p99_s", 0x1.78aed8e23738p-9},
    {"tenants[1].decode_tps", 0x1.835f532a80e9p+11},
    {"tenants[1].kv_peak_bytes", 1384448},
    {"tenants[1].abandoned", 0},
    {"tenants[1].retries", 0},
    {"tenants[1].gate_events", 0},
    {"tenants[1].gated_idle_s", 0x0p+0},
    {"classes.size", 1},
    {"classes[0].priority", 0},
    {"classes[0].offered", 60},
    {"classes[0].completed", 60},
    {"classes[0].shed", 0},
    {"classes[0].abandoned", 0},
    {"classes[0].p99_s", 0x1.651956637167p-7},
    {"classes[0].sla_violation_rate", 0x0p+0},
    {"classes[0].goodput_rps", 0x1.86a0a9ea52aa7p+9},
    {"day_curve.size", 0},
    {"batches.size", 215},
};

const GoldenDigest kContinuousClosedDigests[] = {
    {"batches", 0x9e4609e8360db64cULL},
    {"tenant_latencies", 0x1ed97813dbc7dd26ULL},
    {"chiplet_busy_s", 0x850debfbfcae8487ULL},
    {"ledger", 0x34243e3b58f4b77bULL},
};

const Golden kElastic[] = {
    {"metrics.offered", 400},
    {"metrics.completed", 294},
    {"metrics.shed", 0},
    {"metrics.makespan_s", 0x1.0de68eca2213p-3},
    {"metrics.throughput_rps", 0x1.16dbb2fc5536ap+11},
    {"metrics.goodput_rps", 0x1.f899bdc89a321p+10},
    {"metrics.mean_latency_s", 0x1.4f99d51857a4dp-10},
    {"metrics.p50_s", 0x1.0bfbc981a89cp-10},
    {"metrics.p95_s", 0x1.477116fa36c7p-8},
    {"metrics.p99_s", 0x1.850e9ee501428p-8},
    {"metrics.max_latency_s", 0x1.b24c501480c7p-8},
    {"metrics.sla_violation_rate", 0x1.8618618618618p-4},
    {"metrics.mean_batch", 0x1.b30d516324fe8p+0},
    {"metrics.utilization", 0x1.94fd75dd45b35p-3},
    {"metrics.energy_j", 0x1.12be7682db49dp+0},
    {"metrics.energy_per_request_j", 0x1.de773a5c0cb15p-9},
    {"metrics.resipi_conflicts", 0},
    {"metrics.resipi_wait_s", 0x0p+0},
    {"metrics.shared_handoffs", 0},
    {"metrics.handoff_resipi_s", 0x0p+0},
    {"metrics.service_cache_hits", 1454},
    {"metrics.service_cache_misses", 56},
    {"metrics.p99_hi_s", 0x1.850e9ee501428p-8},
    {"metrics.p99_lo_s", 0x1.850e9ee501428p-8},
    {"metrics.first_arrival_abs_s", 0x1.e9d5c52605ec4p-15},
    {"metrics.last_completion_abs_s", 0x1.0e052c2674736p-3},
    {"metrics.sim_events", 978},
    {"metrics.sim_event_queue_peak", 16},
    {"metrics.ttft_p99_s", 0x0p+0},
    {"metrics.decode_tps", 0x0p+0},
    {"metrics.kv_peak_bytes", 0},
    {"metrics.abandoned", 106},
    {"metrics.retries", 270},
    {"metrics.repartitions", 3},
    {"metrics.repartition_resipi_s", 0x1.92a737110e454p-19},
    {"metrics.gate_events", 154},
    {"metrics.gated_idle_s", 0x1.4a9639610988ep-1},
    {"metrics.faults_injected", 2},
    {"metrics.carbon_g", 0x1.0c8b538ff67dep-13},
    {"tenants.size", 2},
    {"tenants[0].priority", 0},
    {"tenants[0].offered", 200},
    {"tenants[0].completed", 200},
    {"tenants[0].shed", 0},
    {"tenants[0].batches", 83},
    {"tenants[0].throughput_rps", 0x1.7b661f0e2acb2p+10},
    {"tenants[0].goodput_rps", 0x1.7b661f0e2acb2p+10},
    {"tenants[0].mean_latency_s", 0x1.894fb1bb46691p-11},
    {"tenants[0].p50_s", 0x1.dc9a3e386758p-11},
    {"tenants[0].p95_s", 0x1.0cdab46905f4p-10},
    {"tenants[0].p99_s", 0x1.0d02f9f156ccp-10},
    {"tenants[0].max_latency_s", 0x1.0d173a02a74p-10},
    {"tenants[0].sla_s", 0x1.0624dd2f1a9fcp-9},
    {"tenants[0].sla_violation_rate", 0x0p+0},
    {"tenants[0].mean_batch", 0x1.346f0940c565dp+1},
    {"tenants[0].busy_s", 0x1.2253e09ed600fp-10},
    {"tenants[0].utilization", 0x1.135ffed6518e5p-7},
    {"tenants[0].energy_j", 0x1.0397bcc08b235p-6},
    {"tenants[0].energy_per_request_j", 0x1.4c475800b218cp-14},
    {"tenants[0].shared_wait_s", 0x0p+0},
    {"tenants[0].resipi_wait_s", 0x0p+0},
    {"tenants[0].resipi_conflicts", 0},
    {"tenants[0].shared_handoffs", 0},
    {"tenants[0].handoff_resipi_s", 0x0p+0},
    {"tenants[0].ttft_p99_s", 0x0p+0},
    {"tenants[0].decode_tps", 0x0p+0},
    {"tenants[0].kv_peak_bytes", 0},
    {"tenants[0].abandoned", 0},
    {"tenants[0].retries", 0},
    {"tenants[0].gate_events", 85},
    {"tenants[0].gated_idle_s", 0x1.71747a28fe61ap-2},
    {"tenants[1].priority", 0},
    {"tenants[1].offered", 200},
    {"tenants[1].completed", 94},
    {"tenants[1].shed", 0},
    {"tenants[1].batches", 90},
    {"tenants[1].throughput_rps", 0x1.64a28dd4ff441p+9},
    {"tenants[1].goodput_rps", 0x1.f4ce7ae9bd9b8p+8},
    {"tenants[1].mean_latency_s", 0x1.3b9d5378ebc78p-9},
    {"tenants[1].p50_s", 0x1.b3bc99a4ec48p-10},
    {"tenants[1].p95_s", 0x1.7bb87cbe6c77p-8},
    {"tenants[1].p99_s", 0x1.b24c501480c7p-8},
    {"tenants[1].max_latency_s", 0x1.b24c501480c7p-8},
    {"tenants[1].sla_s", 0x1.0624dd2f1a9fcp-9},
    {"tenants[1].sla_violation_rate", 0x1.310572620ae4cp-2},
    {"tenants[1].mean_batch", 0x1.0b60b60b60b61p+0},
    {"tenants[1].busy_s", 0x1.a42d1b320b4d8p-5},
    {"tenants[1].utilization", 0x1.8e8935e43fcap-2},
    {"tenants[1].energy_j", 0x1.0c83bddcb318ep+0},
    {"tenants[1].energy_per_request_j", 0x1.6da30d6de3896p-7},
    {"tenants[1].shared_wait_s", 0x0p+0},
    {"tenants[1].resipi_wait_s", 0x0p+0},
    {"tenants[1].resipi_conflicts", 0},
    {"tenants[1].shared_handoffs", 0},
    {"tenants[1].handoff_resipi_s", 0x0p+0},
    {"tenants[1].ttft_p99_s", 0x0p+0},
    {"tenants[1].decode_tps", 0x0p+0},
    {"tenants[1].kv_peak_bytes", 0},
    {"tenants[1].abandoned", 106},
    {"tenants[1].retries", 270},
    {"tenants[1].gate_events", 69},
    {"tenants[1].gated_idle_s", 0x1.23b7f89914b02p-2},
    {"classes.size", 1},
    {"classes[0].priority", 0},
    {"classes[0].offered", 400},
    {"classes[0].completed", 294},
    {"classes[0].shed", 0},
    {"classes[0].abandoned", 106},
    {"classes[0].p99_s", 0x1.850e9ee501428p-8},
    {"classes[0].sla_violation_rate", 0x1.8618618618618p-4},
    {"classes[0].goodput_rps", 0x1.f899bdc89a321p+10},
    {"day_curve.size", 7},
    {"day_curve[0].t0_s", 0x0p+0},
    {"day_curve[0].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[0].offered", 54},
    {"day_curve[0].completed", 38},
    {"day_curve[0].energy_j", 0x1.51094f8ded898p-3},
    {"day_curve[0].energy_per_request_j", 0x1.1bd1f226ad158p-8},
    {"day_curve[0].carbon_g", 0x1.8cf0129dac3edp-16},
    {"day_curve[1].t0_s", 0x1.47ae147ae147bp-6},
    {"day_curve[1].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[1].offered", 56},
    {"day_curve[1].completed", 39},
    {"day_curve[1].energy_j", 0x1.7bcd6dfd0536dp-3},
    {"day_curve[1].energy_per_request_j", 0x1.37a1fe5973de3p-8},
    {"day_curve[1].carbon_g", 0x1.fe18d298272eep-16},
    {"day_curve[2].t0_s", 0x1.47ae147ae147bp-5},
    {"day_curve[2].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[2].offered", 65},
    {"day_curve[2].completed", 52},
    {"day_curve[2].energy_j", 0x1.7c456331854acp-3},
    {"day_curve[2].energy_per_request_j", 0x1.d406a17806836p-9},
    {"day_curve[2].carbon_g", 0x1.5a2193678e7cfp-16},
    {"day_curve[3].t0_s", 0x1.eb851eb851eb8p-5},
    {"day_curve[3].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[3].offered", 60},
    {"day_curve[3].completed", 41},
    {"day_curve[3].energy_j", 0x1.4c944c6544cd1p-3},
    {"day_curve[3].energy_per_request_j", 0x1.0392f6f16167ep-8},
    {"day_curve[3].carbon_g", 0x1.3d898b77e6aadp-17},
    {"day_curve[4].t0_s", 0x1.47ae147ae147bp-4},
    {"day_curve[4].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[4].offered", 58},
    {"day_curve[4].completed", 53},
    {"day_curve[4].energy_j", 0x1.72b932a0266b6p-3},
    {"day_curve[4].energy_per_request_j", 0x1.bfaa80c163868p-9},
    {"day_curve[4].carbon_g", 0x1.dc89eab26c086p-17},
    {"day_curve[5].t0_s", 0x1.999999999999ap-4},
    {"day_curve[5].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[5].offered", 74},
    {"day_curve[5].completed", 44},
    {"day_curve[5].energy_j", 0x1.b0b272d413f06p-4},
    {"day_curve[5].energy_per_request_j", 0x1.3ab05382f73a7p-9},
    {"day_curve[5].carbon_g", 0x1.fd99a91cc477bp-17},
    {"day_curve[6].t0_s", 0x1.eb851eb851eb8p-4},
    {"day_curve[6].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[6].offered", 33},
    {"day_curve[6].completed", 27},
    {"day_curve[6].energy_j", 0x1.6a61b5d5da274p-4},
    {"day_curve[6].energy_per_request_j", 0x1.ad7d49494e677p-9},
    {"day_curve[6].carbon_g", 0x1.e6b3287d8cdd2p-17},
    {"batches.size", 173},
};

const GoldenDigest kElasticDigests[] = {
    {"batches", 0x7b1d054446c82e6bULL},
    {"tenant_latencies", 0xa0f9e65b24452827ULL},
    {"chiplet_busy_s", 0xa04369bb0e3dd5feULL},
    {"ledger", 0xae689866122f0c5cULL},
};

const Golden kRack[] = {
    {"rack.offered", 450},
    {"rack.completed", 450},
    {"rack.shed", 0},
    {"rack.makespan_s", 0x1.1d60e38d1a04ap-2},
    {"rack.throughput_rps", 0x1.93aca9434dbdap+10},
    {"rack.goodput_rps", 0x1.fbbb96513d5f2p+9},
    {"rack.mean_latency_s", 0x1.0a600161d7074p-5},
    {"rack.p50_s", 0x1.b12ef55650718p-7},
    {"rack.p95_s", 0x1.c31d108e882cep-4},
    {"rack.p99_s", 0x1.005ea9af66a66p-3},
    {"rack.max_latency_s", 0x1.0a94b5e8ae4fep-3},
    {"rack.sla_violation_rate", 0x1.7c048d159e26bp-2},
    {"rack.mean_batch", 0x1.2762762762762p+1},
    {"rack.utilization", 0x1.d2de2e2c50cccp-2},
    {"rack.energy_j", 0x1.c8898727e7bddp+3},
    {"rack.energy_per_request_j", 0x1.03b80d2c51c5ep-5},
    {"rack.resipi_conflicts", 1},
    {"rack.resipi_wait_s", 0x1.dfb2e8154dp-14},
    {"rack.shared_handoffs", 0},
    {"rack.handoff_resipi_s", 0x0p+0},
    {"rack.service_cache_hits", 179},
    {"rack.service_cache_misses", 22},
    {"rack.p99_hi_s", 0x1.005ea9af66a66p-3},
    {"rack.p99_lo_s", 0x1.005ea9af66a66p-3},
    {"rack.first_arrival_abs_s", 0x1.6f6053dc84714p-14},
    {"rack.last_completion_abs_s", 0x1.1d77d99257ccep-2},
    {"rack.sim_events", 754},
    {"rack.sim_event_queue_peak", 5},
    {"rack.ttft_p99_s", 0x0p+0},
    {"rack.decode_tps", 0x0p+0},
    {"rack.kv_peak_bytes", 0},
    {"rack.abandoned", 0},
    {"rack.retries", 0},
    {"rack.repartitions", 0},
    {"rack.repartition_resipi_s", 0x0p+0},
    {"rack.gate_events", 0},
    {"rack.gated_idle_s", 0x0p+0},
    {"rack.faults_injected", 0},
    {"rack.carbon_g", 0x1.9f8ce1e082d64p-10},
    {"packages", 3},
    {"transfers", 305},
    {"transfer_latency_s", 0x1.021e3bb8fe22bp-9},
    {"transfer_energy_j", 0x1.f87000d5f5b8bp-11},
    {"util_min", 0x1.a6acbe60ecbp-2},
    {"util_max", 0x1.11584150e9137p-1},
    {"day_curve.size", 14},
    {"day_curve[0].t0_s", 0x0p+0},
    {"day_curve[0].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[0].offered", 54},
    {"day_curve[0].completed", 38},
    {"day_curve[0].energy_j", 0x1.5412f90b1b0edp+0},
    {"day_curve[0].energy_per_request_j", 0x1.1e60d1b882933p-5},
    {"day_curve[0].carbon_g", 0x1.358b02ff69ddbp-13},
    {"day_curve[1].t0_s", 0x1.47ae147ae147bp-6},
    {"day_curve[1].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[1].offered", 55},
    {"day_curve[1].completed", 39},
    {"day_curve[1].energy_j", 0x1.21a03b88c6e42p+0},
    {"day_curve[1].energy_per_request_j", 0x1.db489635c9aaep-6},
    {"day_curve[1].carbon_g", 0x1.079fba66326b1p-13},
    {"day_curve[2].t0_s", 0x1.47ae147ae147bp-5},
    {"day_curve[2].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[2].offered", 62},
    {"day_curve[2].completed", 50},
    {"day_curve[2].energy_j", 0x1.5b37ab2d4323bp+0},
    {"day_curve[2].energy_per_request_j", 0x1.bc7037442cfa8p-6},
    {"day_curve[2].carbon_g", 0x1.3c0b8802f829ap-13},
    {"day_curve[3].t0_s", 0x1.eb851eb851eb8p-5},
    {"day_curve[3].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[3].offered", 55},
    {"day_curve[3].completed", 47},
    {"day_curve[3].energy_j", 0x1.8f57142ff8a02p+0},
    {"day_curve[3].energy_per_request_j", 0x1.0fe42388268dbp-5},
    {"day_curve[3].carbon_g", 0x1.6b7cfff169045p-13},
    {"day_curve[4].t0_s", 0x1.47ae147ae147bp-4},
    {"day_curve[4].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[4].offered", 73},
    {"day_curve[4].completed", 46},
    {"day_curve[4].energy_j", 0x1.22914f5686191p+0},
    {"day_curve[4].energy_per_request_j", 0x1.94449ae7af70dp-6},
    {"day_curve[4].carbon_g", 0x1.087b297ec527p-13},
    {"day_curve[5].t0_s", 0x1.999999999999ap-4},
    {"day_curve[5].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[5].offered", 54},
    {"day_curve[5].completed", 50},
    {"day_curve[5].energy_j", 0x1.5f18c22247df1p+0},
    {"day_curve[5].energy_per_request_j", 0x1.c1675ee433091p-6},
    {"day_curve[5].carbon_g", 0x1.3f9376ada722ep-13},
    {"day_curve[6].t0_s", 0x1.eb851eb851eb8p-4},
    {"day_curve[6].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[6].offered", 58},
    {"day_curve[6].completed", 44},
    {"day_curve[6].energy_j", 0x1.4a3e6547aa712p+0},
    {"day_curve[6].energy_per_request_j", 0x1.e05ac1dc9ad31p-6},
    {"day_curve[6].carbon_g", 0x1.2c985e01f8aa6p-13},
    {"day_curve[7].t0_s", 0x1.1eb851eb851ecp-3},
    {"day_curve[7].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[7].offered", 39},
    {"day_curve[7].completed", 41},
    {"day_curve[7].energy_j", 0x1.461aa67bc694bp+0},
    {"day_curve[7].energy_per_request_j", 0x1.fd0a618904075p-6},
    {"day_curve[7].carbon_g", 0x1.28d3c3748826ep-13},
    {"day_curve[8].t0_s", 0x1.47ae147ae147bp-3},
    {"day_curve[8].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[8].offered", 0},
    {"day_curve[8].completed", 17},
    {"day_curve[8].energy_j", 0x1.2f8318974c7d6p-1},
    {"day_curve[8].energy_per_request_j", 0x1.1da88f9d752abp-5},
    {"day_curve[8].carbon_g", 0x1.144371a2105fep-14},
    {"day_curve[9].t0_s", 0x1.70a3d70a3d70ap-3},
    {"day_curve[9].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[9].offered", 0},
    {"day_curve[9].completed", 16},
    {"day_curve[9].energy_j", 0x1.802c7c1deb44ep-1},
    {"day_curve[9].energy_per_request_j", 0x1.802c7c1deb44ep-5},
    {"day_curve[9].carbon_g", 0x1.5daef9f65e74p-14},
    {"day_curve[10].t0_s", 0x1.999999999999ap-3},
    {"day_curve[10].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[10].offered", 0},
    {"day_curve[10].completed", 20},
    {"day_curve[10].energy_j", 0x1.c757dc58cbf33p-1},
    {"day_curve[10].energy_per_request_j", 0x1.6c4649e0a328fp-5},
    {"day_curve[10].carbon_g", 0x1.9e76a84070d27p-14},
    {"day_curve[11].t0_s", 0x1.c28f5c28f5c29p-3},
    {"day_curve[11].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[11].offered", 0},
    {"day_curve[11].completed", 12},
    {"day_curve[11].energy_j", 0x1.19f6772c84452p-1},
    {"day_curve[11].energy_per_request_j", 0x1.77f34990b05c3p-5},
    {"day_curve[11].carbon_g", 0x1.00a6158c6abdep-14},
    {"day_curve[12].t0_s", 0x1.eb851eb851eb8p-3},
    {"day_curve[12].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[12].offered", 0},
    {"day_curve[12].completed", 19},
    {"day_curve[12].energy_j", 0x1.8ce637bcfee33p-1},
    {"day_curve[12].energy_per_request_j", 0x1.4e3b2176bbb1dp-5},
    {"day_curve[12].carbon_g", 0x1.69443cbf2488cp-14},
    {"day_curve[13].t0_s", 0x1.0a3d70a3d70a4p-2},
    {"day_curve[13].dt_s", 0x1.47ae147ae147bp-6},
    {"day_curve[13].offered", 0},
    {"day_curve[13].completed", 11},
    {"day_curve[13].energy_j", 0x1.0b5828580c324p-2},
    {"day_curve[13].energy_per_request_j", 0x1.84dd51f46ed4cp-6},
    {"day_curve[13].carbon_g", 0x1.e6af8131ebe09p-16},
    {"package[0].dispatched", 114},
    {"package[0].active", 1},
    {"package[0].metrics.offered", 114},
    {"package[0].metrics.completed", 114},
    {"package[0].metrics.shed", 0},
    {"package[0].metrics.makespan_s", 0x1.0dcb1cbaba9c5p-2},
    {"package[0].metrics.throughput_rps", 0x1.b0afc6f403734p+8},
    {"package[0].metrics.goodput_rps", 0x1.5d2f8a1a41a96p+6},
    {"package[0].metrics.mean_latency_s", 0x1.f06ecfe741a99p-5},
    {"package[0].metrics.p50_s", 0x1.069907f4e77d5p-4},
    {"package[0].metrics.p95_s", 0x1.d4195bdb2558ep-4},
    {"package[0].metrics.p99_s", 0x1.ed7e5ecb44eeep-4},
    {"package[0].metrics.max_latency_s", 0x1.f4a9f77ef1824p-4},
    {"package[0].metrics.sla_violation_rate", 0x1.98b3a62ce98b4p-1},
    {"package[0].metrics.mean_batch", 0x1.ad2d2d2d2d2d3p+1},
    {"package[0].metrics.utilization", 0x1.af3d4982338f5p-2},
    {"package[0].metrics.energy_j", 0x1.3a4dbea822a9ap+2},
    {"package[0].metrics.energy_per_request_j", 0x1.60e702fba92a4p-5},
    {"package[0].metrics.resipi_conflicts", 0},
    {"package[0].metrics.resipi_wait_s", 0x0p+0},
    {"package[0].metrics.shared_handoffs", 0},
    {"package[0].metrics.handoff_resipi_s", 0x0p+0},
    {"package[0].metrics.service_cache_hits", 29},
    {"package[0].metrics.service_cache_misses", 7},
    {"package[0].metrics.p99_hi_s", 0x1.ed7e5ecb44eeep-4},
    {"package[0].metrics.p99_lo_s", 0x1.ed7e5ecb44eeep-4},
    {"package[0].metrics.first_arrival_abs_s", 0x1.6f6053dc84714p-14},
    {"package[0].metrics.last_completion_abs_s", 0x1.0de212bff8649p-2},
    {"package[0].metrics.sim_events", 151},
    {"package[0].metrics.sim_event_queue_peak", 4},
    {"package[0].metrics.ttft_p99_s", 0x0p+0},
    {"package[0].metrics.decode_tps", 0x0p+0},
    {"package[0].metrics.kv_peak_bytes", 0},
    {"package[0].metrics.abandoned", 0},
    {"package[0].metrics.retries", 0},
    {"package[0].metrics.repartitions", 0},
    {"package[0].metrics.repartition_resipi_s", 0x0p+0},
    {"package[0].metrics.gate_events", 0},
    {"package[0].metrics.gated_idle_s", 0x0p+0},
    {"package[0].metrics.faults_injected", 0},
    {"package[0].metrics.carbon_g", 0x1.1e16116fda5fcp-11},
    {"package[0].tenants.size", 2},
    {"package[0].tenants[0].priority", 0},
    {"package[0].tenants[0].offered", 59},
    {"package[0].tenants[0].completed", 59},
    {"package[0].tenants[0].shed", 0},
    {"package[0].tenants[0].batches", 18},
    {"package[0].tenants[0].throughput_rps", 0x1.bfde5da73df51p+7},
    {"package[0].tenants[0].goodput_rps", 0x1.a9187b9a66326p+4},
    {"package[0].tenants[0].mean_latency_s", 0x1.f93d7498af1d2p-5},
    {"package[0].tenants[0].p50_s", 0x1.e39757dd1ee14p-5},
    {"package[0].tenants[0].p95_s", 0x1.eb6d3f96d5bb8p-4},
    {"package[0].tenants[0].p99_s", 0x1.f4a9f77ef1824p-4},
    {"package[0].tenants[0].max_latency_s", 0x1.f4a9f77ef1824p-4},
    {"package[0].tenants[0].sla_s", 0x1.44acfebceff4p-6},
    {"package[0].tenants[0].sla_violation_rate", 0x1.c34115b1e5f75p-1},
    {"package[0].tenants[0].mean_batch", 0x1.a38e38e38e38ep+1},
    {"package[0].tenants[0].busy_s", 0x1.a192fc1b5706cp-4},
    {"package[0].tenants[0].utilization", 0x1.8c39aff5ff05ap-2},
    {"package[0].tenants[0].energy_j", 0x1.0979c9a021741p+1},
    {"package[0].tenants[0].energy_per_request_j", 0x1.1ff942d917458p-5},
    {"package[0].tenants[0].shared_wait_s", 0x1.3b6a906fded7p-3},
    {"package[0].tenants[0].resipi_wait_s", 0x0p+0},
    {"package[0].tenants[0].resipi_conflicts", 0},
    {"package[0].tenants[0].shared_handoffs", 0},
    {"package[0].tenants[0].handoff_resipi_s", 0x0p+0},
    {"package[0].tenants[0].ttft_p99_s", 0x0p+0},
    {"package[0].tenants[0].decode_tps", 0x0p+0},
    {"package[0].tenants[0].kv_peak_bytes", 0},
    {"package[0].tenants[0].abandoned", 0},
    {"package[0].tenants[0].retries", 0},
    {"package[0].tenants[0].gate_events", 0},
    {"package[0].tenants[0].gated_idle_s", 0x0p+0},
    {"package[0].tenants[1].priority", 0},
    {"package[0].tenants[1].offered", 55},
    {"package[0].tenants[1].completed", 55},
    {"package[0].tenants[1].shed", 0},
    {"package[0].tenants[1].batches", 16},
    {"package[0].tenants[1].throughput_rps", 0x1.a1813040c8f17p+7},
    {"package[0].tenants[1].goodput_rps", 0x1.e5d2d66750399p+5},
    {"package[0].tenants[1].mean_latency_s", 0x1.e6fc31d9cc3fep-5},
    {"package[0].tenants[1].p50_s", 0x1.0f327fe000db1p-4},
    {"package[0].tenants[1].p95_s", 0x1.a3afef5d7f0b4p-4},
    {"package[0].tenants[1].p99_s", 0x1.b2a3fc51b03f4p-4},
    {"package[0].tenants[1].max_latency_s", 0x1.b2a3fc51b03f4p-4},
    {"package[0].tenants[1].sla_s", 0x1.f7d68913813b4p-6},
    {"package[0].tenants[1].sla_violation_rate", 0x1.6b0df6b0df6b1p-1},
    {"package[0].tenants[1].mean_batch", 0x1.b8p+1},
    {"package[0].tenants[1].busy_s", 0x1.4795683e3fc62p-3},
    {"package[0].tenants[1].utilization", 0x1.36d5ecb44566p-1},
    {"package[0].tenants[1].energy_j", 0x1.60b46f17ddd48p+1},
    {"package[0].tenants[1].energy_per_request_j", 0x1.9a6b8f3c5a90ep-5},
    {"package[0].tenants[1].shared_wait_s", 0x1.668faa1921be4p-4},
    {"package[0].tenants[1].resipi_wait_s", 0x0p+0},
    {"package[0].tenants[1].resipi_conflicts", 0},
    {"package[0].tenants[1].shared_handoffs", 0},
    {"package[0].tenants[1].handoff_resipi_s", 0x0p+0},
    {"package[0].tenants[1].ttft_p99_s", 0x0p+0},
    {"package[0].tenants[1].decode_tps", 0x0p+0},
    {"package[0].tenants[1].kv_peak_bytes", 0},
    {"package[0].tenants[1].abandoned", 0},
    {"package[0].tenants[1].retries", 0},
    {"package[0].tenants[1].gate_events", 0},
    {"package[0].tenants[1].gated_idle_s", 0x0p+0},
    {"package[0].classes.size", 1},
    {"package[0].classes[0].priority", 0},
    {"package[0].classes[0].offered", 114},
    {"package[0].classes[0].completed", 114},
    {"package[0].classes[0].shed", 0},
    {"package[0].classes[0].abandoned", 0},
    {"package[0].classes[0].p99_s", 0x1.ed7e5ecb44eeep-4},
    {"package[0].classes[0].sla_violation_rate", 0x1.98b3a62ce98b4p-1},
    {"package[0].classes[0].goodput_rps", 0x1.5d2f8a1a41a96p+6},
    {"package[0].day_curve.size", 14},
    {"package[0].day_curve[0].t0_s", 0x0p+0},
    {"package[0].day_curve[0].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[0].offered", 13},
    {"package[0].day_curve[0].completed", 7},
    {"package[0].day_curve[0].energy_j", 0x1.0f6ddc599b861p-1},
    {"package[0].day_curve[0].energy_per_request_j", 0x1.3634698afae26p-4},
    {"package[0].day_curve[0].carbon_g", 0x1.ee1f262f1279ap-15},
    {"package[0].day_curve[1].t0_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[1].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[1].offered", 13},
    {"package[0].day_curve[1].completed", 6},
    {"package[0].day_curve[1].energy_j", 0x1.74469a11c7e82p-3},
    {"package[0].day_curve[1].energy_per_request_j", 0x1.f05e22c25fe03p-6},
    {"package[0].day_curve[1].carbon_g", 0x1.52da8bc846e9ap-16},
    {"package[0].day_curve[2].t0_s", 0x1.47ae147ae147bp-5},
    {"package[0].day_curve[2].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[2].offered", 16},
    {"package[0].day_curve[2].completed", 8},
    {"package[0].day_curve[2].energy_j", 0x1.8b987731080d9p-2},
    {"package[0].day_curve[2].energy_per_request_j", 0x1.8b987731080d9p-5},
    {"package[0].day_curve[2].carbon_g", 0x1.681472dcc1ecfp-15},
    {"package[0].day_curve[3].t0_s", 0x1.eb851eb851eb8p-5},
    {"package[0].day_curve[3].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[3].offered", 15},
    {"package[0].day_curve[3].completed", 12},
    {"package[0].day_curve[3].energy_j", 0x1.16c1e90c21968p-1},
    {"package[0].day_curve[3].energy_per_request_j", 0x1.73ad36bad7735p-5},
    {"package[0].day_curve[3].carbon_g", 0x1.fb7664aa734d9p-15},
    {"package[0].day_curve[4].t0_s", 0x1.47ae147ae147bp-4},
    {"package[0].day_curve[4].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[4].offered", 18},
    {"package[0].day_curve[4].completed", 8},
    {"package[0].day_curve[4].energy_j", 0x1.6117c835752d7p-2},
    {"package[0].day_curve[4].energy_per_request_j", 0x1.6117c835752d7p-5},
    {"package[0].day_curve[4].carbon_g", 0x1.41649bd68be17p-15},
    {"package[0].day_curve[5].t0_s", 0x1.999999999999ap-4},
    {"package[0].day_curve[5].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[5].offered", 13},
    {"package[0].day_curve[5].completed", 8},
    {"package[0].day_curve[5].energy_j", 0x1.6117c835752d7p-2},
    {"package[0].day_curve[5].energy_per_request_j", 0x1.6117c835752d7p-5},
    {"package[0].day_curve[5].carbon_g", 0x1.41649bd68be17p-15},
    {"package[0].day_curve[6].t0_s", 0x1.eb851eb851eb8p-4},
    {"package[0].day_curve[6].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[6].offered", 16},
    {"package[0].day_curve[6].completed", 8},
    {"package[0].day_curve[6].energy_j", 0x1.6117c835752d7p-2},
    {"package[0].day_curve[6].energy_per_request_j", 0x1.6117c835752d7p-5},
    {"package[0].day_curve[6].carbon_g", 0x1.41649bd68be17p-15},
    {"package[0].day_curve[7].t0_s", 0x1.1eb851eb851ecp-3},
    {"package[0].day_curve[7].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[7].offered", 10},
    {"package[0].day_curve[7].completed", 8},
    {"package[0].day_curve[7].energy_j", 0x1.6117c835752d7p-2},
    {"package[0].day_curve[7].energy_per_request_j", 0x1.6117c835752d7p-5},
    {"package[0].day_curve[7].carbon_g", 0x1.41649bd68be17p-15},
    {"package[0].day_curve[8].t0_s", 0x1.47ae147ae147bp-3},
    {"package[0].day_curve[8].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[8].offered", 0},
    {"package[0].day_curve[8].completed", 8},
    {"package[0].day_curve[8].energy_j", 0x1.6117c835752d7p-2},
    {"package[0].day_curve[8].energy_per_request_j", 0x1.6117c835752d7p-5},
    {"package[0].day_curve[8].carbon_g", 0x1.41649bd68be17p-15},
    {"package[0].day_curve[9].t0_s", 0x1.70a3d70a3d70ap-3},
    {"package[0].day_curve[9].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[9].offered", 0},
    {"package[0].day_curve[9].completed", 8},
    {"package[0].day_curve[9].energy_j", 0x1.6117c835752d7p-2},
    {"package[0].day_curve[9].energy_per_request_j", 0x1.6117c835752d7p-5},
    {"package[0].day_curve[9].carbon_g", 0x1.41649bd68be17p-15},
    {"package[0].day_curve[10].t0_s", 0x1.999999999999ap-3},
    {"package[0].day_curve[10].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[10].offered", 0},
    {"package[0].day_curve[10].completed", 12},
    {"package[0].day_curve[10].energy_j", 0x1.ef6e88ab368ap-2},
    {"package[0].day_curve[10].energy_per_request_j", 0x1.4a49b072245cp-5},
    {"package[0].day_curve[10].carbon_g", 0x1.c2f3f86ab09e6p-15},
    {"package[0].day_curve[11].t0_s", 0x1.c28f5c28f5c29p-3},
    {"package[0].day_curve[11].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[11].offered", 0},
    {"package[0].day_curve[11].completed", 8},
    {"package[0].day_curve[11].energy_j", 0x1.6117c835752d7p-2},
    {"package[0].day_curve[11].energy_per_request_j", 0x1.6117c835752d7p-5},
    {"package[0].day_curve[11].carbon_g", 0x1.41649bd68be17p-15},
    {"package[0].day_curve[12].t0_s", 0x1.eb851eb851eb8p-3},
    {"package[0].day_curve[12].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[12].offered", 0},
    {"package[0].day_curve[12].completed", 11},
    {"package[0].day_curve[12].energy_j", 0x1.7a8b3f739c69fp-2},
    {"package[0].day_curve[12].energy_per_request_j", 0x1.134dff99e61e8p-5},
    {"package[0].day_curve[12].carbon_g", 0x1.588f2168180aep-15},
    {"package[0].day_curve[13].t0_s", 0x1.0a3d70a3d70a4p-2},
    {"package[0].day_curve[13].dt_s", 0x1.47ae147ae147bp-6},
    {"package[0].day_curve[13].offered", 0},
    {"package[0].day_curve[13].completed", 2},
    {"package[0].day_curve[13].energy_j", 0x1.2059e7bd2dc9bp-10},
    {"package[0].day_curve[13].energy_per_request_j", 0x1.2059e7bd2dc9bp-11},
    {"package[0].day_curve[13].carbon_g", 0x1.0676b29eff1fdp-23},
    {"package[0].batches.size", 0},
    {"package[1].dispatched", 176},
    {"package[1].active", 1},
    {"package[1].metrics.offered", 176},
    {"package[1].metrics.completed", 176},
    {"package[1].metrics.shed", 0},
    {"package[1].metrics.makespan_s", 0x1.57948065abd9p-3},
    {"package[1].metrics.throughput_rps", 0x1.06460d670b37bp+10},
    {"package[1].metrics.goodput_rps", 0x1.04c8903c46ca4p+10},
    {"package[1].metrics.mean_latency_s", 0x1.88a8aff37d416p-8},
    {"package[1].metrics.p50_s", 0x1.86d0072eb3acbp-9},
    {"package[1].metrics.p95_s", 0x1.0fbed53eaaeep-6},
    {"package[1].metrics.p99_s", 0x1.39a5cbd12c65p-6},
    {"package[1].metrics.max_latency_s", 0x1.521d46cd5dcfp-6},
    {"package[1].metrics.sla_violation_rate", 0x1.745d1745d1746p-8},
    {"package[1].metrics.mean_batch", 0x1p+1},
    {"package[1].metrics.utilization", 0x1.11584150e9137p-1},
    {"package[1].metrics.energy_j", 0x1.f70f979086cbbp+1},
    {"package[1].metrics.energy_per_request_j", 0x1.6ddccb51d6659p-6},
    {"package[1].metrics.resipi_conflicts", 0},
    {"package[1].metrics.resipi_wait_s", 0x0p+0},
    {"package[1].metrics.shared_handoffs", 0},
    {"package[1].metrics.handoff_resipi_s", 0x0p+0},
    {"package[1].metrics.service_cache_hits", 82},
    {"package[1].metrics.service_cache_misses", 8},
    {"package[1].metrics.p99_hi_s", 0x1.39a5cbd12c65p-6},
    {"package[1].metrics.p99_lo_s", 0x1.39a5cbd12c65p-6},
    {"package[1].metrics.first_arrival_abs_s", 0x1.27b05889c001p-11},
    {"package[1].metrics.last_completion_abs_s", 0x1.58bc30be3599p-3},
    {"package[1].metrics.sim_events", 322},
    {"package[1].metrics.sim_event_queue_peak", 5},
    {"package[1].metrics.ttft_p99_s", 0x0p+0},
    {"package[1].metrics.decode_tps", 0x0p+0},
    {"package[1].metrics.kv_peak_bytes", 0},
    {"package[1].metrics.abandoned", 0},
    {"package[1].metrics.retries", 0},
    {"package[1].metrics.repartitions", 0},
    {"package[1].metrics.repartition_resipi_s", 0x0p+0},
    {"package[1].metrics.gate_events", 0},
    {"package[1].metrics.gated_idle_s", 0x0p+0},
    {"package[1].metrics.faults_injected", 0},
    {"package[1].metrics.carbon_g", 0x1.c9e5aff58e7dcp-12},
    {"package[1].tenants.size", 2},
    {"package[1].tenants[0].priority", 0},
    {"package[1].tenants[0].offered", 91},
    {"package[1].tenants[0].completed", 91},
    {"package[1].tenants[0].shed", 0},
    {"package[1].tenants[0].batches", 36},
    {"package[1].tenants[0].throughput_rps", 0x1.0f36fc67a5c82p+9},
    {"package[1].tenants[0].goodput_rps", 0x1.0c3c02121ced5p+9},
    {"package[1].tenants[0].mean_latency_s", 0x1.4bb88c2587b54p-7},
    {"package[1].tenants[0].p50_s", 0x1.3e4171cc64b6p-7},
    {"package[1].tenants[0].p95_s", 0x1.19eb9eb9896ep-6},
    {"package[1].tenants[0].p99_s", 0x1.521d46cd5dcfp-6},
    {"package[1].tenants[0].max_latency_s", 0x1.521d46cd5dcfp-6},
    {"package[1].tenants[0].sla_s", 0x1.44acfebceff4p-6},
    {"package[1].tenants[0].sla_violation_rate", 0x1.6816816816817p-7},
    {"package[1].tenants[0].mean_batch", 0x1.438e38e38e38ep+1},
    {"package[1].tenants[0].busy_s", 0x1.48dc04047c1cbp-3},
    {"package[1].tenants[0].utilization", 0x1.ea103c59108ebp-1},
    {"package[1].tenants[0].energy_j", 0x1.a1c94a95b95fp+1},
    {"package[1].tenants[0].energy_per_request_j", 0x1.25d3e5afa150ep-5},
    {"package[1].tenants[0].shared_wait_s", 0x0p+0},
    {"package[1].tenants[0].resipi_wait_s", 0x0p+0},
    {"package[1].tenants[0].resipi_conflicts", 0},
    {"package[1].tenants[0].shared_handoffs", 0},
    {"package[1].tenants[0].handoff_resipi_s", 0x0p+0},
    {"package[1].tenants[0].ttft_p99_s", 0x0p+0},
    {"package[1].tenants[0].decode_tps", 0x0p+0},
    {"package[1].tenants[0].kv_peak_bytes", 0},
    {"package[1].tenants[0].abandoned", 0},
    {"package[1].tenants[0].retries", 0},
    {"package[1].tenants[0].gate_events", 0},
    {"package[1].tenants[0].gated_idle_s", 0x0p+0},
    {"package[1].tenants[1].priority", 0},
    {"package[1].tenants[1].offered", 85},
    {"package[1].tenants[1].completed", 85},
    {"package[1].tenants[1].shed", 0},
    {"package[1].tenants[1].batches", 52},
    {"package[1].tenants[1].throughput_rps", 0x1.faaa3ccce14e7p+8},
    {"package[1].tenants[1].goodput_rps", 0x1.faaa3ccce14e7p+8},
    {"package[1].tenants[1].mean_latency_s", 0x1.9b0c4c44e075dp-10},
    {"package[1].tenants[1].p50_s", 0x1.976443d19be6p-10},
    {"package[1].tenants[1].p95_s", 0x1.dfe405235ddp-10},
    {"package[1].tenants[1].p99_s", 0x1.0beb0b71b404p-9},
    {"package[1].tenants[1].max_latency_s", 0x1.0beb0b71b404p-9},
    {"package[1].tenants[1].sla_s", 0x1.6b1e8096432cep-8},
    {"package[1].tenants[1].sla_violation_rate", 0x0p+0},
    {"package[1].tenants[1].mean_batch", 0x1.a276276276276p+0},
    {"package[1].tenants[1].busy_s", 0x1.2ffe5ceaf7584p-5},
    {"package[1].tenants[1].utilization", 0x1.c50232460cc1ep-3},
    {"package[1].tenants[1].energy_j", 0x1.3fd37c66da15dp-1},
    {"package[1].tenants[1].energy_per_request_j", 0x1.e19ed973badb9p-8},
    {"package[1].tenants[1].shared_wait_s", 0x0p+0},
    {"package[1].tenants[1].resipi_wait_s", 0x0p+0},
    {"package[1].tenants[1].resipi_conflicts", 0},
    {"package[1].tenants[1].shared_handoffs", 0},
    {"package[1].tenants[1].handoff_resipi_s", 0x0p+0},
    {"package[1].tenants[1].ttft_p99_s", 0x0p+0},
    {"package[1].tenants[1].decode_tps", 0x0p+0},
    {"package[1].tenants[1].kv_peak_bytes", 0},
    {"package[1].tenants[1].abandoned", 0},
    {"package[1].tenants[1].retries", 0},
    {"package[1].tenants[1].gate_events", 0},
    {"package[1].tenants[1].gated_idle_s", 0x0p+0},
    {"package[1].classes.size", 1},
    {"package[1].classes[0].priority", 0},
    {"package[1].classes[0].offered", 176},
    {"package[1].classes[0].completed", 176},
    {"package[1].classes[0].shed", 0},
    {"package[1].classes[0].abandoned", 0},
    {"package[1].classes[0].p99_s", 0x1.39a5cbd12c65p-6},
    {"package[1].classes[0].sla_violation_rate", 0x1.745d1745d1746p-8},
    {"package[1].classes[0].goodput_rps", 0x1.04c8903c46ca4p+10},
    {"package[1].day_curve.size", 9},
    {"package[1].day_curve[0].t0_s", 0x0p+0},
    {"package[1].day_curve[0].dt_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[0].offered", 25},
    {"package[1].day_curve[0].completed", 22},
    {"package[1].day_curve[0].energy_j", 0x1.b63ac79951ef5p-2},
    {"package[1].day_curve[0].energy_per_request_j", 0x1.3eb6629e0d0b2p-6},
    {"package[1].day_curve[0].carbon_g", 0x1.8ee2e66051dc5p-15},
    {"package[1].day_curve[1].t0_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[1].dt_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[1].offered", 21},
    {"package[1].day_curve[1].completed", 19},
    {"package[1].day_curve[1].energy_j", 0x1.d82af7bf8770ep-2},
    {"package[1].day_curve[1].energy_per_request_j", 0x1.8d9d7250720e3p-6},
    {"package[1].day_curve[1].carbon_g", 0x1.adc714eef5b4cp-15},
    {"package[1].day_curve[2].t0_s", 0x1.47ae147ae147bp-5},
    {"package[1].day_curve[2].dt_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[2].offered", 26},
    {"package[1].day_curve[2].completed", 28},
    {"package[1].day_curve[2].energy_j", 0x1.0e5ebca3f6b5cp-1},
    {"package[1].day_curve[2].energy_per_request_j", 0x1.34fe8e723e869p-6},
    {"package[1].day_curve[2].carbon_g", 0x1.ec31954dfc495p-15},
    {"package[1].day_curve[3].t0_s", 0x1.eb851eb851eb8p-5},
    {"package[1].day_curve[3].dt_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[3].offered", 22},
    {"package[1].day_curve[3].completed", 19},
    {"package[1].day_curve[3].energy_j", 0x1.0e2605d61783fp-1},
    {"package[1].day_curve[3].energy_per_request_j", 0x1.c6fcab8385ebbp-6},
    {"package[1].day_curve[3].carbon_g", 0x1.ebca56a0d24ap-15},
    {"package[1].day_curve[4].t0_s", 0x1.47ae147ae147bp-4},
    {"package[1].day_curve[4].dt_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[4].offered", 27},
    {"package[1].day_curve[4].completed", 23},
    {"package[1].day_curve[4].energy_j", 0x1.fb466c31b567p-2},
    {"package[1].day_curve[4].energy_per_request_j", 0x1.60e3139d03c21p-6},
    {"package[1].day_curve[4].carbon_g", 0x1.cdbba9b4a434dp-15},
    {"package[1].day_curve[5].t0_s", 0x1.999999999999ap-4},
    {"package[1].day_curve[5].dt_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[5].offered", 21},
    {"package[1].day_curve[5].completed", 23},
    {"package[1].day_curve[5].energy_j", 0x1.0b4ae64a85919p-1},
    {"package[1].day_curve[5].energy_per_request_j", 0x1.73e2a4943444fp-6},
    {"package[1].day_curve[5].carbon_g", 0x1.e6975e82a80f9p-15},
    {"package[1].day_curve[6].t0_s", 0x1.eb851eb851eb8p-4},
    {"package[1].day_curve[6].dt_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[6].offered", 18},
    {"package[1].day_curve[6].completed", 17},
    {"package[1].day_curve[6].energy_j", 0x1.c76e50986d241p-2},
    {"package[1].day_curve[6].energy_per_request_j", 0x1.aca40f9e84d6ap-6},
    {"package[1].day_curve[6].carbon_g", 0x1.9e8b186f6f672p-15},
    {"package[1].day_curve[7].t0_s", 0x1.1eb851eb851ecp-3},
    {"package[1].day_curve[7].dt_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[7].offered", 16},
    {"package[1].day_curve[7].completed", 20},
    {"package[1].day_curve[7].energy_j", 0x1.eca9ac02826bep-2},
    {"package[1].day_curve[7].energy_per_request_j", 0x1.8a21566868565p-6},
    {"package[1].day_curve[7].carbon_g", 0x1.c06ebf9c56dacp-15},
    {"package[1].day_curve[8].t0_s", 0x1.47ae147ae147bp-3},
    {"package[1].day_curve[8].dt_s", 0x1.47ae147ae147bp-6},
    {"package[1].day_curve[8].offered", 0},
    {"package[1].day_curve[8].completed", 5},
    {"package[1].day_curve[8].energy_j", 0x1.58ca16ac83838p-5},
    {"package[1].day_curve[8].energy_per_request_j", 0x1.13d4def06936p-7},
    {"package[1].day_curve[8].carbon_g", 0x1.39d5c15a5a1fdp-18},
    {"package[1].batches.size", 0},
    {"package[2].dispatched", 160},
    {"package[2].active", 1},
    {"package[2].metrics.offered", 160},
    {"package[2].metrics.completed", 160},
    {"package[2].metrics.shed", 0},
    {"package[2].metrics.makespan_s", 0x1.1c9e30f11c988p-2},
    {"package[2].metrics.throughput_rps", 0x1.1fd30f1043defp+9},
    {"package[2].metrics.goodput_rps", 0x1.31d04001481cep+8},
    {"package[2].metrics.mean_latency_s", 0x1.557b1129b9906p-5},
    {"package[2].metrics.p50_s", 0x1.81ec1416fda84p-6},
    {"package[2].metrics.p95_s", 0x1.e5dca5c488cfcp-4},
    {"package[2].metrics.p99_s", 0x1.09d0f7aad9b99p-3},
    {"package[2].metrics.max_latency_s", 0x1.0a94b5e8ae4fep-3},
    {"package[2].metrics.sla_violation_rate", 0x1.ep-2},
    {"package[2].metrics.mean_batch", 0x1.188c46231188cp+1},
    {"package[2].metrics.utilization", 0x1.a6acbe60ecbp-2},
    {"package[2].metrics.energy_j", 0x1.5b2dc05f62bc9p+2},
    {"package[2].metrics.energy_per_request_j", 0x1.15be337f82307p-5},
    {"package[2].metrics.resipi_conflicts", 1},
    {"package[2].metrics.resipi_wait_s", 0x1.dfb2e8154dp-14},
    {"package[2].metrics.shared_handoffs", 0},
    {"package[2].metrics.handoff_resipi_s", 0x0p+0},
    {"package[2].metrics.service_cache_hits", 68},
    {"package[2].metrics.service_cache_misses", 7},
    {"package[2].metrics.p99_hi_s", 0x1.09d0f7aad9b99p-3},
    {"package[2].metrics.p99_lo_s", 0x1.09d0f7aad9b99p-3},
    {"package[2].metrics.first_arrival_abs_s", 0x1.b351427668c34p-11},
    {"package[2].metrics.last_completion_abs_s", 0x1.1d77d99257ccep-2},
    {"package[2].metrics.sim_events", 281},
    {"package[2].metrics.sim_event_queue_peak", 4},
    {"package[2].metrics.ttft_p99_s", 0x0p+0},
    {"package[2].metrics.decode_tps", 0x0p+0},
    {"package[2].metrics.kv_peak_bytes", 0},
    {"package[2].metrics.abandoned", 0},
    {"package[2].metrics.retries", 0},
    {"package[2].metrics.repartitions", 0},
    {"package[2].metrics.repartition_resipi_s", 0x0p+0},
    {"package[2].metrics.gate_events", 0},
    {"package[2].metrics.gated_idle_s", 0x0p+0},
    {"package[2].metrics.faults_injected", 0},
    {"package[2].metrics.carbon_g", 0x1.3c028122b6428p-11},
    {"package[2].tenants.size", 2},
    {"package[2].tenants[0].priority", 0},
    {"package[2].tenants[0].offered", 65},
    {"package[2].tenants[0].completed", 65},
    {"package[2].tenants[0].shed", 0},
    {"package[2].tenants[0].batches", 47},
    {"package[2].tenants[0].throughput_rps", 0x1.d3b6f87a6e4a5p+7},
    {"package[2].tenants[0].goodput_rps", 0x1.d3b6f87a6e4a5p+7},
    {"package[2].tenants[0].mean_latency_s", 0x1.980f4fc71e9ep-10},
    {"package[2].tenants[0].p50_s", 0x1.927c17ee2a61p-10},
    {"package[2].tenants[0].p95_s", 0x1.d92a1604c50cp-10},
    {"package[2].tenants[0].p99_s", 0x1.0bb94d64f5fep-9},
    {"package[2].tenants[0].max_latency_s", 0x1.0bb94d64f5fep-9},
    {"package[2].tenants[0].sla_s", 0x1.5eda12dda762dp-8},
    {"package[2].tenants[0].sla_violation_rate", 0x0p+0},
    {"package[2].tenants[0].mean_batch", 0x1.620ae4c415c99p+0},
    {"package[2].tenants[0].busy_s", 0x1.eb3da2d59508ep-6},
    {"package[2].tenants[0].utilization", 0x1.b9d8e1cec899fp-4},
    {"package[2].tenants[0].energy_j", 0x1.2ad87f84a7cfep-1},
    {"package[2].tenants[0].energy_per_request_j", 0x1.263f817ead1b7p-7},
    {"package[2].tenants[0].shared_wait_s", 0x0p+0},
    {"package[2].tenants[0].resipi_wait_s", 0x0p+0},
    {"package[2].tenants[0].resipi_conflicts", 0},
    {"package[2].tenants[0].shared_handoffs", 0},
    {"package[2].tenants[0].handoff_resipi_s", 0x0p+0},
    {"package[2].tenants[0].ttft_p99_s", 0x0p+0},
    {"package[2].tenants[0].decode_tps", 0x0p+0},
    {"package[2].tenants[0].kv_peak_bytes", 0},
    {"package[2].tenants[0].abandoned", 0},
    {"package[2].tenants[0].retries", 0},
    {"package[2].tenants[0].gate_events", 0},
    {"package[2].tenants[0].gated_idle_s", 0x0p+0},
    {"package[2].tenants[1].priority", 0},
    {"package[2].tenants[1].offered", 95},
    {"package[2].tenants[1].completed", 95},
    {"package[2].tenants[1].shed", 0},
    {"package[2].tenants[1].batches", 26},
    {"package[2].tenants[1].throughput_rps", 0x1.55caa1e35098cp+8},
    {"package[2].tenants[1].goodput_rps", 0x1.1fd30f1043defp+6},
    {"package[2].tenants[1].mean_latency_s", 0x1.1b3342dd020adp-4},
    {"package[2].tenants[1].p50_s", 0x1.198a746e288a2p-4},
    {"package[2].tenants[1].p95_s", 0x1.005ea9af66a66p-3},
    {"package[2].tenants[1].p99_s", 0x1.0a94b5e8ae4fep-3},
    {"package[2].tenants[1].max_latency_s", 0x1.0a94b5e8ae4fep-3},
    {"package[2].tenants[1].sla_s", 0x1.f7d68913813b4p-6},
    {"package[2].tenants[1].sla_violation_rate", 0x1.9435e50d79436p-1},
    {"package[2].tenants[1].mean_batch", 0x1.d3b13b13b13b1p+1},
    {"package[2].tenants[1].busy_s", 0x1.1a94b23cfd4dbp-2},
    {"package[2].tenants[1].utilization", 0x1.fc55e19cb7d76p-1},
    {"package[2].tenants[1].energy_j", 0x1.30413ece7e082p+2},
    {"package[2].tenants[1].energy_per_request_j", 0x1.99f1826f25c4ep-5},
    {"package[2].tenants[1].shared_wait_s", 0x0p+0},
    {"package[2].tenants[1].resipi_wait_s", 0x1.dfb2e8154dp-14},
    {"package[2].tenants[1].resipi_conflicts", 1},
    {"package[2].tenants[1].shared_handoffs", 0},
    {"package[2].tenants[1].handoff_resipi_s", 0x0p+0},
    {"package[2].tenants[1].ttft_p99_s", 0x0p+0},
    {"package[2].tenants[1].decode_tps", 0x0p+0},
    {"package[2].tenants[1].kv_peak_bytes", 0},
    {"package[2].tenants[1].abandoned", 0},
    {"package[2].tenants[1].retries", 0},
    {"package[2].tenants[1].gate_events", 0},
    {"package[2].tenants[1].gated_idle_s", 0x0p+0},
    {"package[2].classes.size", 1},
    {"package[2].classes[0].priority", 0},
    {"package[2].classes[0].offered", 160},
    {"package[2].classes[0].completed", 160},
    {"package[2].classes[0].shed", 0},
    {"package[2].classes[0].abandoned", 0},
    {"package[2].classes[0].p99_s", 0x1.09d0f7aad9b99p-3},
    {"package[2].classes[0].sla_violation_rate", 0x1.ep-2},
    {"package[2].classes[0].goodput_rps", 0x1.31d04001481cep+8},
    {"package[2].day_curve.size", 14},
    {"package[2].day_curve[0].t0_s", 0x0p+0},
    {"package[2].day_curve[0].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[0].offered", 16},
    {"package[2].day_curve[0].completed", 9},
    {"package[2].day_curve[0].energy_j", 0x1.7b3563dfe33fbp-2},
    {"package[2].day_curve[0].energy_per_request_j", 0x1.51130371ad8dfp-5},
    {"package[2].day_curve[0].carbon_g", 0x1.5929ff6e4320bp-15},
    {"package[2].day_curve[1].t0_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[1].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[1].offered", 21},
    {"package[2].day_curve[1].completed", 14},
    {"package[2].day_curve[1].energy_j", 0x1.f432a95ab02b9p-2},
    {"package[2].day_curve[1].energy_per_request_j", 0x1.1dd3ce7cf6f45p-5},
    {"package[2].day_curve[1].carbon_g", 0x1.c74a8ec5b082bp-15},
    {"package[2].day_curve[2].t0_s", 0x1.47ae147ae147bp-5},
    {"package[2].day_curve[2].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[2].offered", 20},
    {"package[2].day_curve[2].completed", 14},
    {"package[2].day_curve[2].energy_j", 0x1.c488bc3c1715cp-2},
    {"package[2].day_curve[2].energy_per_request_j", 0x1.029746fdc40c7p-5},
    {"package[2].day_curve[2].carbon_g", 0x1.9be817e122703p-15},
    {"package[2].day_curve[3].t0_s", 0x1.eb851eb851eb8p-5},
    {"package[2].day_curve[3].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[3].offered", 18},
    {"package[2].day_curve[3].completed", 16},
    {"package[2].day_curve[3].energy_j", 0x1.f38c72fb704b6p-2},
    {"package[2].day_curve[3].energy_per_request_j", 0x1.f38c72fb704b6p-6},
    {"package[2].day_curve[3].carbon_g", 0x1.c6b3447a5e79dp-15},
    {"package[2].day_curve[4].t0_s", 0x1.47ae147ae147bp-4},
    {"package[2].day_curve[4].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[4].offered", 28},
    {"package[2].day_curve[4].completed", 15},
    {"package[2].day_curve[4].energy_j", 0x1.2de708f2edcfdp-2},
    {"package[2].day_curve[4].energy_per_request_j", 0x1.420781031fccap-6},
    {"package[2].day_curve[4].carbon_g", 0x1.12cc606fe485ap-15},
    {"package[2].day_curve[5].t0_s", 0x1.999999999999ap-4},
    {"package[2].day_curve[5].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[5].offered", 20},
    {"package[2].day_curve[5].completed", 19},
    {"package[2].day_curve[5].energy_j", 0x1.025ab9df4f95ep-1},
    {"package[2].day_curve[5].energy_per_request_j", 0x1.b31f89e3e45acp-6},
    {"package[2].day_curve[5].carbon_g", 0x1.d651e05d689a9p-15},
    {"package[2].day_curve[6].t0_s", 0x1.eb851eb851eb8p-4},
    {"package[2].day_curve[6].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[6].offered", 24},
    {"package[2].day_curve[6].completed", 19},
    {"package[2].day_curve[6].energy_j", 0x1.0039be2863b99p-1},
    {"package[2].day_curve[6].energy_per_request_j", 0x1.af89ac0e21388p-6},
    {"package[2].day_curve[6].carbon_g", 0x1.d271c3c1e760ep-15},
    {"package[2].day_curve[7].t0_s", 0x1.1eb851eb851ecp-3},
    {"package[2].day_curve[7].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[7].offered", 13},
    {"package[2].day_curve[7].completed", 13},
    {"package[2].day_curve[7].energy_j", 0x1.caa925b722b98p-2},
    {"package[2].day_curve[7].energy_per_request_j", 0x1.1a40b4bf77d4ap-5},
    {"package[2].day_curve[7].carbon_g", 0x1.a17bb25f3ddf4p-15},
    {"package[2].day_curve[8].t0_s", 0x1.47ae147ae147bp-3},
    {"package[2].day_curve[8].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[8].offered", 0},
    {"package[2].day_curve[8].completed", 4},
    {"package[2].day_curve[8].energy_j", 0x1.a5aa4c4726b9cp-3},
    {"package[2].day_curve[8].energy_per_request_j", 0x1.a5aa4c4726b9cp-5},
    {"package[2].day_curve[8].carbon_g", 0x1.7fcf1e849334cp-16},
    {"package[2].day_curve[9].t0_s", 0x1.70a3d70a3d70ap-3},
    {"package[2].day_curve[9].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[9].offered", 0},
    {"package[2].day_curve[9].completed", 8},
    {"package[2].day_curve[9].energy_j", 0x1.9f413006615c6p-2},
    {"package[2].day_curve[9].energy_per_request_j", 0x1.9f413006615c6p-5},
    {"package[2].day_curve[9].carbon_g", 0x1.79f9581631068p-15},
    {"package[2].day_curve[10].t0_s", 0x1.999999999999ap-3},
    {"package[2].day_curve[10].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[10].offered", 0},
    {"package[2].day_curve[10].completed", 8},
    {"package[2].day_curve[10].energy_j", 0x1.9f413006615c6p-2},
    {"package[2].day_curve[10].energy_per_request_j", 0x1.9f413006615c6p-5},
    {"package[2].day_curve[10].carbon_g", 0x1.79f9581631068p-15},
    {"package[2].day_curve[11].t0_s", 0x1.c28f5c28f5c29p-3},
    {"package[2].day_curve[11].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[11].offered", 0},
    {"package[2].day_curve[11].completed", 4},
    {"package[2].day_curve[11].energy_j", 0x1.a5aa4c4726b9cp-3},
    {"package[2].day_curve[11].energy_per_request_j", 0x1.a5aa4c4726b9cp-5},
    {"package[2].day_curve[11].carbon_g", 0x1.7fcf1e849334cp-16},
    {"package[2].day_curve[12].t0_s", 0x1.eb851eb851eb8p-3},
    {"package[2].day_curve[12].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[12].offered", 0},
    {"package[2].day_curve[12].completed", 8},
    {"package[2].day_curve[12].energy_j", 0x1.9f413006615c7p-2},
    {"package[2].day_curve[12].energy_per_request_j", 0x1.9f413006615c7p-5},
    {"package[2].day_curve[12].carbon_g", 0x1.79f9581631069p-15},
    {"package[2].day_curve[13].t0_s", 0x1.0a3d70a3d70a4p-2},
    {"package[2].day_curve[13].dt_s", 0x1.47ae147ae147bp-6},
    {"package[2].day_curve[13].offered", 0},
    {"package[2].day_curve[13].completed", 9},
    {"package[2].day_curve[13].energy_j", 0x1.0a37ce704f047p-2},
    {"package[2].day_curve[13].energy_per_request_j", 0x1.d946c455e1cfp-6},
    {"package[2].day_curve[13].carbon_g", 0x1.e4a293ccade25p-16},
    {"package[2].batches.size", 0},
};

const GoldenDigest kRackDigests[] = {
    {"package[0].batches", 0xcbf29ce484222325ULL},
    {"package[0].tenant_latencies", 0xacb33ee0ba499a65ULL},
    {"package[0].chiplet_busy_s", 0x3a7a961e1b73ab2bULL},
    {"package[0].ledger", 0x09070190cd0fc4d7ULL},
    {"package[1].batches", 0xcbf29ce484222325ULL},
    {"package[1].tenant_latencies", 0xfbdfcaaf040dd5abULL},
    {"package[1].chiplet_busy_s", 0xfeee60c3ae21edc5ULL},
    {"package[1].ledger", 0x90d8513d57002c0bULL},
    {"package[2].batches", 0xcbf29ce484222325ULL},
    {"package[2].tenant_latencies", 0xaef9cd1c3ef293b4ULL},
    {"package[2].chiplet_busy_s", 0x3562d44dba6d47ccULL},
    {"package[2].ledger", 0x2abbeac38cd108e9ULL},
};
const Golden kMixedLayerSize[] = {
    {"metrics.offered", 150},
    {"metrics.completed", 150},
    {"metrics.shed", 0},
    {"metrics.makespan_s", 0x1.b229063811d8ep-3},
    {"metrics.throughput_rps", 0x1.61c952ad27e3fp+9},
    {"metrics.goodput_rps", 0x1.bb698d2af1248p+8},
    {"metrics.mean_latency_s", 0x1.527f5133ab59ap-8},
    {"metrics.p50_s", 0x1.a345ae3b5bfp-10},
    {"metrics.p95_s", 0x1.299a1d601032ap-6},
    {"metrics.p99_s", 0x1.55fd6d61f6da8p-6},
    {"metrics.max_latency_s", 0x1.a344906ba66ep-6},
    {"metrics.sla_violation_rate", 0x1.7e4b17e4b17e5p-2},
    {"metrics.mean_batch", 0x1.af75eebdd7bafp+0},
    {"metrics.utilization", 0x1.1419afb018b13p-3},
    {"metrics.energy_j", 0x1.b727e28cb8e52p+0},
    {"metrics.energy_per_request_j", 0x1.76bf0c6a6dfd9p-7},
    {"metrics.resipi_conflicts", 0},
    {"metrics.resipi_wait_s", 0x0p+0},
    {"metrics.shared_handoffs", 56},
    {"metrics.handoff_resipi_s", 0x1.d5c31593e5fbap-15},
    {"metrics.service_cache_hits", 155},
    {"metrics.service_cache_misses", 19},
    {"metrics.p99_hi_s", 0x1.55fd6d61f6da8p-6},
    {"metrics.p99_lo_s", 0x1.bbb22d70fae4p-8},
    {"metrics.first_arrival_abs_s", 0x1.32259b37c3b3bp-12},
    {"metrics.last_completion_abs_s", 0x1.b2c21905adbacp-3},
    {"metrics.sim_events", 1604},
    {"metrics.sim_event_queue_peak", 6},
    {"metrics.ttft_p99_s", 0x1.618a2609b4938p-6},
    {"metrics.decode_tps", 0x1.f404a4a2ce90ap+9},
    {"metrics.kv_peak_bytes", 1474560},
    {"metrics.abandoned", 0},
    {"metrics.retries", 0},
    {"metrics.repartitions", 0},
    {"metrics.repartition_resipi_s", 0x0p+0},
    {"metrics.gate_events", 0},
    {"metrics.gated_idle_s", 0x0p+0},
    {"metrics.faults_injected", 0},
    {"metrics.carbon_g", 0x1.8fbab7e8fddb4p-13},
    {"tenants.size", 3},
    {"tenants[0].priority", 0},
    {"tenants[0].offered", 50},
    {"tenants[0].completed", 50},
    {"tenants[0].shed", 0},
    {"tenants[0].batches", 13},
    {"tenants[0].throughput_rps", 0x1.d7b718e6dfda9p+7},
    {"tenants[0].goodput_rps", 0x1.d7b718e6dfda9p+7},
    {"tenants[0].mean_latency_s", 0x1.7dbec86205bfdp-7},
    {"tenants[0].p50_s", 0x1.6b3393b1a3b78p-7},
    {"tenants[0].p95_s", 0x1.55c218196f89bp-6},
    {"tenants[0].p99_s", 0x1.a344906ba66ep-6},
    {"tenants[0].max_latency_s", 0x1.a344906ba66ep-6},
    {"tenants[0].sla_s", 0x1.c75cae96268e5p-6},
    {"tenants[0].sla_violation_rate", 0x0p+0},
    {"tenants[0].mean_batch", 0x1.ec4ec4ec4ec4fp+1},
    {"tenants[0].busy_s", 0x1.1912111cf3b17p-4},
    {"tenants[0].utilization", 0x1.4b769264ea06bp-2},
    {"tenants[0].energy_j", 0x1.245340bd996a1p+0},
    {"tenants[0].energy_per_request_j", 0x1.762d1fab01cf7p-6},
    {"tenants[0].shared_wait_s", 0x1.761ede0ba3p-16},
    {"tenants[0].resipi_wait_s", 0x0p+0},
    {"tenants[0].resipi_conflicts", 0},
    {"tenants[0].shared_handoffs", 0},
    {"tenants[0].handoff_resipi_s", 0x0p+0},
    {"tenants[0].ttft_p99_s", 0x1.618a2609b4938p-6},
    {"tenants[0].decode_tps", 0x1.f404a4a2ce90ap+9},
    {"tenants[0].kv_peak_bytes", 1474560},
    {"tenants[0].abandoned", 0},
    {"tenants[0].retries", 0},
    {"tenants[0].gate_events", 0},
    {"tenants[0].gated_idle_s", 0x0p+0},
    {"tenants[1].priority", 1},
    {"tenants[1].offered", 50},
    {"tenants[1].completed", 50},
    {"tenants[1].shed", 0},
    {"tenants[1].batches", 38},
    {"tenants[1].throughput_rps", 0x1.d7b718e6dfda9p+7},
    {"tenants[1].goodput_rps", 0x1.2de5d27f47962p+2},
    {"tenants[1].mean_latency_s", 0x1.afa6316446df7p-10},
    {"tenants[1].p50_s", 0x1.0982d76c3bcp-10},
    {"tenants[1].p95_s", 0x1.978aca45ccdfp-8},
    {"tenants[1].p99_s", 0x1.bbb22d70fae4p-8},
    {"tenants[1].max_latency_s", 0x1.bbb22d70fae4p-8},
    {"tenants[1].sla_s", 0x1.f0cafb22ea9d8p-14},
    {"tenants[1].sla_violation_rate", 0x1.f5c28f5c28f5cp-1},
    {"tenants[1].mean_batch", 0x1.50d79435e50d8p+0},
    {"tenants[1].busy_s", 0x1.f7db72fa8f928p-12},
    {"tenants[1].utilization", 0x1.2918ade57e035p-9},
    {"tenants[1].energy_j", 0x1.0eee52da08457p-7},
    {"tenants[1].energy_per_request_j", 0x1.5acaa77d7b3a3p-13},
    {"tenants[1].shared_wait_s", 0x1.1525972836c67p-5},
    {"tenants[1].resipi_wait_s", 0x0p+0},
    {"tenants[1].resipi_conflicts", 0},
    {"tenants[1].shared_handoffs", 28},
    {"tenants[1].handoff_resipi_s", 0x1.d5c31593e5fbap-16},
    {"tenants[1].ttft_p99_s", 0x0p+0},
    {"tenants[1].decode_tps", 0x0p+0},
    {"tenants[1].kv_peak_bytes", 0},
    {"tenants[1].abandoned", 0},
    {"tenants[1].retries", 0},
    {"tenants[1].gate_events", 0},
    {"tenants[1].gated_idle_s", 0x0p+0},
    {"tenants[2].priority", 0},
    {"tenants[2].offered", 50},
    {"tenants[2].completed", 50},
    {"tenants[2].shed", 0},
    {"tenants[2].batches", 38},
    {"tenants[2].throughput_rps", 0x1.d7b718e6dfda9p+7},
    {"tenants[2].goodput_rps", 0x1.95acd2db0831bp+7},
    {"tenants[2].mean_latency_s", 0x1.202dacfbc9a9ap-9},
    {"tenants[2].p50_s", 0x1.83b51e2ab03cp-10},
    {"tenants[2].p95_s", 0x1.6c368bce1df8p-8},
    {"tenants[2].p99_s", 0x1.e40e30f20773p-8},
    {"tenants[2].max_latency_s", 0x1.e40e30f20773p-8},
    {"tenants[2].sla_s", 0x1.0f0ee67e3742p-8},
    {"tenants[2].sla_violation_rate", 0x1.1eb851eb851ecp-3},
    {"tenants[2].mean_batch", 0x1.50d79435e50d8p+0},
    {"tenants[2].busy_s", 0x1.2530043fbec65p-6},
    {"tenants[2].utilization", 0x1.59c0aa05e89f7p-4},
    {"tenants[2].energy_j", 0x1.dec20491709f4p-2},
    {"tenants[2].energy_per_request_j", 0x1.3267b100ebeb1p-7},
    {"tenants[2].shared_wait_s", 0x1.220b494003db8p-5},
    {"tenants[2].resipi_wait_s", 0x0p+0},
    {"tenants[2].resipi_conflicts", 0},
    {"tenants[2].shared_handoffs", 28},
    {"tenants[2].handoff_resipi_s", 0x1.d5c31593e5fbap-16},
    {"tenants[2].ttft_p99_s", 0x0p+0},
    {"tenants[2].decode_tps", 0x0p+0},
    {"tenants[2].kv_peak_bytes", 0},
    {"tenants[2].abandoned", 0},
    {"tenants[2].retries", 0},
    {"tenants[2].gate_events", 0},
    {"tenants[2].gated_idle_s", 0x0p+0},
    {"classes.size", 2},
    {"classes[0].priority", 0},
    {"classes[0].offered", 100},
    {"classes[0].completed", 100},
    {"classes[0].shed", 0},
    {"classes[0].abandoned", 0},
    {"classes[0].p99_s", 0x1.55fd6d61f6da8p-6},
    {"classes[0].sla_violation_rate", 0x1.1eb851eb851ecp-4},
    {"classes[0].goodput_rps", 0x1.b6b1f5e0f4062p+8},
    {"classes[1].priority", 1},
    {"classes[1].offered", 50},
    {"classes[1].completed", 50},
    {"classes[1].shed", 0},
    {"classes[1].abandoned", 0},
    {"classes[1].p99_s", 0x1.bbb22d70fae4p-8},
    {"classes[1].sla_violation_rate", 0x1.f5c28f5c28f5cp-1},
    {"classes[1].goodput_rps", 0x1.2de5d27f47962p+2},
    {"day_curve.size", 0},
    {"batches.size", 1381},
};
const GoldenDigest kMixedLayerSizeDigests[] = {
    {"batches", 0x354f700e3173b03dULL},
    {"tenant_latencies", 0x7e81002b38010097ULL},
    {"chiplet_busy_s", 0x9daf2c75721963b8ULL},
    {"ledger", 0x8b6ca5e944a44936ULL},
};

const Golden kMixedLayerCont[] = {
    {"metrics.offered", 150},
    {"metrics.completed", 150},
    {"metrics.shed", 0},
    {"metrics.makespan_s", 0x1.b107ddea59d57p-3},
    {"metrics.throughput_rps", 0x1.62b59095ee0e3p+9},
    {"metrics.goodput_rps", 0x1.9b767484f56cap+8},
    {"metrics.mean_latency_s", 0x1.760a1ea546ce1p-9},
    {"metrics.p50_s", 0x1.6b1794f0bb38p-9},
    {"metrics.p95_s", 0x1.7cd9745c2e79p-8},
    {"metrics.p99_s", 0x1.36545563b47ap-7},
    {"metrics.max_latency_s", 0x1.459451fb5983p-7},
    {"metrics.sla_violation_rate", 0x1.ae147ae147ae1p-2},
    {"metrics.mean_batch", 0x1.30c30c30c30c3p+0},
    {"metrics.utilization", 0x1.9af906908a60bp-3},
    {"metrics.energy_j", 0x1.577fccd8cd67cp+1},
    {"metrics.energy_per_request_j", 0x1.251e8cab59f22p-6},
    {"metrics.resipi_conflicts", 1},
    {"metrics.resipi_wait_s", 0x1.ccbec19b32p-16},
    {"metrics.shared_handoffs", 62},
    {"metrics.handoff_resipi_s", 0x1.040bfe3b03e22p-14},
    {"metrics.service_cache_hits", 278},
    {"metrics.service_cache_misses", 30},
    {"metrics.p99_hi_s", 0x1.36545563b47ap-7},
    {"metrics.p99_lo_s", 0x1.35e97a712a674p-7},
    {"metrics.first_arrival_abs_s", 0x1.32259b37c3b3bp-12},
    {"metrics.last_completion_abs_s", 0x1.b1a0f0b7f5b75p-3},
    {"metrics.sim_events", 1812},
    {"metrics.sim_event_queue_peak", 7},
    {"metrics.ttft_p99_s", 0x1.37774bc960a8p-10},
    {"metrics.decode_tps", 0x1.f5528814c1178p+9},
    {"metrics.kv_peak_bytes", 1048576},
    {"metrics.abandoned", 0},
    {"metrics.retries", 0},
    {"metrics.repartitions", 0},
    {"metrics.repartition_resipi_s", 0x0p+0},
    {"metrics.gate_events", 0},
    {"metrics.gated_idle_s", 0x0p+0},
    {"metrics.faults_injected", 0},
    {"metrics.carbon_g", 0x1.38a91e94a4358p-12},
    {"tenants.size", 3},
    {"tenants[0].priority", 0},
    {"tenants[0].offered", 50},
    {"tenants[0].completed", 50},
    {"tenants[0].shed", 0},
    {"tenants[0].batches", 50},
    {"tenants[0].throughput_rps", 0x1.d8f2161d3d685p+7},
    {"tenants[0].goodput_rps", 0x1.d8f2161d3d685p+7},
    {"tenants[0].mean_latency_s", 0x1.c3c6186576b97p-9},
    {"tenants[0].p50_s", 0x1.b3c2c2845377p-9},
    {"tenants[0].p95_s", 0x1.4fa6051103dc8p-8},
    {"tenants[0].p99_s", 0x1.78ab63857b9p-8},
    {"tenants[0].max_latency_s", 0x1.78ab63857b9p-8},
    {"tenants[0].sla_s", 0x1.c75cae96268e5p-6},
    {"tenants[0].sla_violation_rate", 0x0p+0},
    {"tenants[0].mean_batch", 0x1p+0},
    {"tenants[0].busy_s", 0x1.fbeff3bc1e8eep-4},
    {"tenants[0].utilization", 0x1.2c488ebff6c3ep-1},
    {"tenants[0].energy_j", 0x1.0f27bdf3fd7c2p+1},
    {"tenants[0].energy_per_request_j", 0x1.5b14265707054p-5},
    {"tenants[0].shared_wait_s", 0x1.7eab4b27017aep-9},
    {"tenants[0].resipi_wait_s", 0x0p+0},
    {"tenants[0].resipi_conflicts", 0},
    {"tenants[0].shared_handoffs", 0},
    {"tenants[0].handoff_resipi_s", 0x0p+0},
    {"tenants[0].ttft_p99_s", 0x1.37774bc960a8p-10},
    {"tenants[0].decode_tps", 0x1.f5528814c1178p+9},
    {"tenants[0].kv_peak_bytes", 1048576},
    {"tenants[0].abandoned", 0},
    {"tenants[0].retries", 0},
    {"tenants[0].gate_events", 0},
    {"tenants[0].gated_idle_s", 0x0p+0},
    {"tenants[1].priority", 1},
    {"tenants[1].offered", 50},
    {"tenants[1].completed", 50},
    {"tenants[1].shed", 0},
    {"tenants[1].batches", 38},
    {"tenants[1].throughput_rps", 0x1.d8f2161d3d685p+7},
    {"tenants[1].goodput_rps", 0x0p+0},
    {"tenants[1].mean_latency_s", 0x1.03dfad62cdbefp-9},
    {"tenants[1].p50_s", 0x1.09d09e473d28p-10},
    {"tenants[1].p95_s", 0x1.7ec9730c5bf8p-8},
    {"tenants[1].p99_s", 0x1.35e97a712a674p-7},
    {"tenants[1].max_latency_s", 0x1.35e97a712a674p-7},
    {"tenants[1].sla_s", 0x1.f0cafb22ea9d8p-14},
    {"tenants[1].sla_violation_rate", 0x1p+0},
    {"tenants[1].mean_batch", 0x1.50d79435e50d8p+0},
    {"tenants[1].busy_s", 0x1.fb00c168b1b1p-12},
    {"tenants[1].utilization", 0x1.2bbb261d632bdp-9},
    {"tenants[1].energy_j", 0x1.0eee52da08457p-7},
    {"tenants[1].energy_per_request_j", 0x1.5acaa77d7b3a3p-13},
    {"tenants[1].shared_wait_s", 0x1.50284911abab8p-5},
    {"tenants[1].resipi_wait_s", 0x0p+0},
    {"tenants[1].resipi_conflicts", 0},
    {"tenants[1].shared_handoffs", 31},
    {"tenants[1].handoff_resipi_s", 0x1.040bfe3b03e22p-15},
    {"tenants[1].ttft_p99_s", 0x0p+0},
    {"tenants[1].decode_tps", 0x0p+0},
    {"tenants[1].kv_peak_bytes", 0},
    {"tenants[1].abandoned", 0},
    {"tenants[1].retries", 0},
    {"tenants[1].gate_events", 0},
    {"tenants[1].gated_idle_s", 0x0p+0},
    {"tenants[2].priority", 0},
    {"tenants[2].offered", 50},
    {"tenants[2].completed", 50},
    {"tenants[2].shed", 0},
    {"tenants[2].batches", 38},
    {"tenants[2].throughput_rps", 0x1.d8f2161d3d685p+7},
    {"tenants[2].goodput_rps", 0x1.5dfad2ecad71p+7},
    {"tenants[2].mean_latency_s", 0x1.9a7896278ff17p-9},
    {"tenants[2].p50_s", 0x1.70ef0a858a6cp-9},
    {"tenants[2].p95_s", 0x1.f10547509054p-8},
    {"tenants[2].p99_s", 0x1.459451fb5983p-7},
    {"tenants[2].max_latency_s", 0x1.459451fb5983p-7},
    {"tenants[2].sla_s", 0x1.0f0ee67e3742p-8},
    {"tenants[2].sla_violation_rate", 0x1.0a3d70a3d70a4p-2},
    {"tenants[2].mean_batch", 0x1.50d79435e50d8p+0},
    {"tenants[2].busy_s", 0x1.253c9979774ebp-6},
    {"tenants[2].utilization", 0x1.5ab66b411c481p-4},
    {"tenants[2].energy_j", 0x1.dec20491709f4p-2},
    {"tenants[2].energy_per_request_j", 0x1.3267b100ebeb1p-7},
    {"tenants[2].shared_wait_s", 0x1.2c98e325efd4dp-4},
    {"tenants[2].resipi_wait_s", 0x1.ccbec19b32p-16},
    {"tenants[2].resipi_conflicts", 1},
    {"tenants[2].shared_handoffs", 31},
    {"tenants[2].handoff_resipi_s", 0x1.040bfe3b03e22p-15},
    {"tenants[2].ttft_p99_s", 0x0p+0},
    {"tenants[2].decode_tps", 0x0p+0},
    {"tenants[2].kv_peak_bytes", 0},
    {"tenants[2].abandoned", 0},
    {"tenants[2].retries", 0},
    {"tenants[2].gate_events", 0},
    {"tenants[2].gated_idle_s", 0x0p+0},
    {"classes.size", 2},
    {"classes[0].priority", 0},
    {"classes[0].offered", 100},
    {"classes[0].completed", 100},
    {"classes[0].shed", 0},
    {"classes[0].abandoned", 0},
    {"classes[0].p99_s", 0x1.36545563b47ap-7},
    {"classes[0].sla_violation_rate", 0x1.0a3d70a3d70a4p-3},
    {"classes[0].goodput_rps", 0x1.9b767484f56cap+8},
    {"classes[1].priority", 1},
    {"classes[1].offered", 50},
    {"classes[1].completed", 50},
    {"classes[1].shed", 0},
    {"classes[1].abandoned", 0},
    {"classes[1].p99_s", 0x1.35e97a712a674p-7},
    {"classes[1].sla_violation_rate", 0x1p+0},
    {"classes[1].goodput_rps", 0x0p+0},
    {"day_curve.size", 0},
    {"batches.size", 1588},
};
const GoldenDigest kMixedLayerContDigests[] = {
    {"batches", 0x9b1ff2c1bbb9a2e9ULL},
    {"tenant_latencies", 0x08b916ad8709d268ULL},
    {"chiplet_busy_s", 0xc29be9d0456ac51fULL},
    {"ledger", 0xfc01f641a870cee7ULL},
};
// clang-format on

// ------------------------------------------------------------------ tests

TEST(ServingGolden, BatchGranularDeadlineShedWithPriorities) {
  expect_golden(flat_of(run(batch_deadline_spec())), "kBatchDeadline",
                kBatchDeadline, kBatchDeadlineDigests);
}

TEST(ServingGolden, BatchGranularResipiConflicts) {
  const ServingReport report = run(batch_conflict_spec());
  ASSERT_GT(report.metrics.resipi_conflicts, 0u);
  expect_golden(flat_of(report), "kBatchConflict", kBatchConflict,
                kBatchConflictDigests);
}

TEST(ServingGolden, LayerGranularSharedHandoffs) {
  const ServingReport report = run(layer_handoff_spec());
  ASSERT_GT(report.metrics.shared_handoffs, 0u);
  ASSERT_GT(report.metrics.resipi_conflicts, 0u);
  ASSERT_FALSE(report.batches.empty());
  expect_golden(flat_of(report), "kLayerHandoff", kLayerHandoff,
                kLayerHandoffDigests);
}

TEST(ServingGolden, TokenSizeBatchingWithSpread) {
  expect_golden(flat_of(run(token_size_spec())), "kTokenSize", kTokenSize,
                kTokenSizeDigests);
}

TEST(ServingGolden, ContinuousBatchingClosedLoop) {
  expect_golden(flat_of(run(continuous_closed_spec())), "kContinuousClosed",
                kContinuousClosed, kContinuousClosedDigests);
}

TEST(ServingGolden, ElasticRepartitionFaultRetryGating) {
  const ServingReport report = run(elastic_spec());
  ASSERT_GT(report.metrics.repartitions, 0u);
  ASSERT_FALSE(report.day_curve.empty());
  expect_golden(flat_of(report), "kElastic", kElastic, kElasticDigests);
}

/// Both mixed layer-mode runs must exercise the contention they pin:
/// shared-group handoffs, and a shared wait for every tenant.
void expect_mixed_contention(const ServingReport& report) {
  ASSERT_GT(report.metrics.shared_handoffs, 0u);
  ASSERT_EQ(report.tenants.size(), 3u);
  for (const TenantReport& tenant : report.tenants) {
    ASSERT_GT(tenant.shared_wait_s, 0.0) << tenant.name;
  }
}

TEST(ServingGolden, LayerGranularMixedSizeBatchedTransformer) {
  const ServingReport report =
      simulate(mixed_layer_config(BatchPolicy::kFixedSize));
  expect_mixed_contention(report);
  expect_golden(flat_of(report), "kMixedLayerSize", kMixedLayerSize,
                kMixedLayerSizeDigests);
}

TEST(ServingGolden, LayerGranularMixedContinuousTransformer) {
  const ServingReport report =
      simulate(mixed_layer_config(BatchPolicy::kContinuous));
  expect_mixed_contention(report);
  expect_golden(flat_of(report), "kMixedLayerCont", kMixedLayerCont,
                kMixedLayerContDigests);
}

TEST(ServingGolden, ReplicatedLeastLoadedRack) {
  Flat flat;
  flatten(flat, cluster::simulate(rack_config()));
  expect_golden(flat, "kRack", kRack, kRackDigests);
}

}  // namespace
}  // namespace optiplet::serve
