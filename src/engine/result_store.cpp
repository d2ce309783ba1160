#include "engine/result_store.hpp"

#include <map>

#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace optiplet::engine {
namespace {

std::string overrides_to_string(const ScenarioSpec& spec) {
  std::vector<std::string> parts;
  for (const auto& [name, value] : spec.overrides) {
    parts.push_back(name + '=' + util::format_general(value));
  }
  return util::join(parts, " ");
}

}  // namespace

void ResultStore::add_all(const std::vector<ScenarioResult>& results) {
  results_.insert(results_.end(), results.begin(), results.end());
}

std::vector<core::PlatformAverages> ResultStore::by_architecture() const {
  std::vector<accel::Architecture> order;
  std::map<accel::Architecture, std::vector<core::RunResult>> groups;
  for (const auto& r : results_) {
    if (groups.find(r.spec.arch) == groups.end()) {
      order.push_back(r.spec.arch);
    }
    groups[r.spec.arch].push_back(r.run);
  }
  std::vector<core::PlatformAverages> averages;
  averages.reserve(order.size());
  for (const auto arch : order) {
    averages.push_back(
        core::average_runs(accel::to_string(arch), groups.at(arch)));
  }
  return averages;
}

const ScenarioResult* ResultStore::best_by(
    const std::function<double(const ScenarioResult&)>& metric) const {
  const ScenarioResult* best = nullptr;
  double best_value = 0.0;
  for (const auto& r : results_) {
    const double value = metric(r);
    if (best == nullptr || value < best_value) {
      best = &r;
      best_value = value;
    }
  }
  return best;
}

std::vector<std::string> ResultStore::csv_header() {
  return {"model",
          "architecture",
          "batch_size",
          "wavelengths",
          "gateways_per_chiplet",
          "modulation",
          "fidelity",
          "overrides",
          "latency_s",
          "power_w",
          "energy_j",
          "epb_j_per_bit",
          "traffic_bits",
          "resipi_reconfigurations",
          "mean_active_gateways",
          // Serving columns; empty for single-inference rows.
          "serving",
          "arrival_rps",
          "batch_policy",
          "pipeline",
          "max_batch",
          "tenant_mix",
          "requests",
          "throughput_rps",
          "mean_latency_s",
          "p50_s",
          "p95_s",
          "p99_s",
          "sla_violation_rate",
          "mean_batch",
          "utilization",
          "energy_per_request_j",
          // Arrival-source / admission-control columns (PR 5). users and
          // think_s are only populated for closed-loop rows (open-loop
          // specs ignore them).
          "arrival_source",
          "users",
          "think_s",
          "admission",
          "priority_mix",
          "shed",
          "goodput_rps",
          "p99_hi_s",
          "p99_lo_s",
          // Transformer serving columns; empty for fixed-shape rows.
          "prefill_tokens",
          "decode_tokens",
          "ttft_p99_s",
          "decode_tps",
          "kv_peak_bytes",
          // Rack scale-out columns (PR 6); empty for non-cluster rows.
          "packages",
          "balancer",
          "replication",
          "transfers",
          "transfer_latency_s",
          "transfer_energy_j",
          // Elastic-operation columns (PR 10): the policy codec string plus
          // its counters. "static" with zero counters when the policy is
          // inert; empty for single-inference rows.
          "elastic",
          "repartitions",
          "repartition_resipi_s",
          "gate_events",
          "gated_idle_s",
          "retries",
          "abandoned",
          "carbon_g",
          // Self-profiling columns (PR 8). eval_wall_s and from_cache are
          // populated for every row; the simulator-internals columns only
          // for serving/cluster rows. eval_wall_s is NOT deterministic.
          "eval_wall_s",
          "from_cache",
          "sim_events",
          "event_queue_peak",
          "oracle_cache_hits",
          "oracle_cache_misses"};
}

std::vector<std::string> ResultStore::csv_row(const ScenarioResult& result) {
  const auto& s = result.spec;
  const auto& r = result.run;
  std::vector<std::string> row = {
      s.model,
      accel::to_string(s.arch),
      std::to_string(s.batch_size),
      std::to_string(s.wavelengths),
      std::to_string(s.gateways_per_chiplet),
      photonics::to_string(s.modulation),
      core::to_string(s.fidelity),
      overrides_to_string(s),
      util::format_general(r.latency_s),
      util::format_general(r.average_power_w),
      util::format_general(r.energy_j),
      util::format_general(r.epb_j_per_bit),
      std::to_string(r.traffic_bits),
      std::to_string(r.resipi_reconfigurations),
      util::format_general(r.mean_active_gateways)};
  if (s.serving && result.serving) {
    const auto& spec = *s.serving;
    const auto& m = *result.serving;
    row.insert(row.end(),
               {"1",
                util::format_general(spec.arrival_rps),
                serve::to_string(spec.policy),
                serve::to_string(spec.pipeline),
                std::to_string(spec.max_batch),
                spec.tenant_mix,
                std::to_string(spec.requests),
                util::format_general(m.throughput_rps),
                util::format_general(m.mean_latency_s),
                util::format_general(m.p50_s),
                util::format_general(m.p95_s),
                util::format_general(m.p99_s),
                util::format_general(m.sla_violation_rate),
                util::format_general(m.mean_batch),
                util::format_general(m.utilization),
                util::format_general(m.energy_per_request_j)});
    const bool closed = spec.source == serve::ArrivalSource::kClosedLoop;
    row.insert(row.end(),
               {serve::to_string(spec.source),
                closed ? std::to_string(spec.users) : std::string(),
                closed ? util::format_general(spec.think_s) : std::string(),
                serve::to_string(spec.admission),
                spec.priority_mix,
                std::to_string(m.shed),
                util::format_general(m.goodput_rps),
                util::format_general(m.p99_hi_s),
                util::format_general(m.p99_lo_s)});
    if (spec.prefill_tokens > 0) {
      row.insert(row.end(),
                 {std::to_string(spec.prefill_tokens),
                  std::to_string(spec.decode_tokens),
                  util::format_general(m.ttft_p99_s),
                  util::format_general(m.decode_tps),
                  std::to_string(m.kv_peak_bytes)});
    } else {
      row.insert(row.end(), 5, "");
    }
    if (s.cluster && result.cluster) {
      const auto& cs = *s.cluster;
      const auto& cm = *result.cluster;
      row.insert(row.end(),
                 {std::to_string(cs.packages),
                  std::string(cluster::to_string(cs.balancer)),
                  cs.replication_mix.empty() ? std::to_string(cs.replication)
                                             : cs.replication_mix,
                  std::to_string(cm.transfers),
                  util::format_general(cm.transfer_latency_s),
                  util::format_general(cm.transfer_energy_j)});
    } else {
      row.insert(row.end(), 6, "");  // the elastic block follows
    }
    row.insert(row.end(),
               {serve::to_string(spec.elastic),
                std::to_string(m.repartitions),
                util::format_general(m.repartition_resipi_s),
                std::to_string(m.gate_events),
                util::format_general(m.gated_idle_s),
                std::to_string(m.retries),
                std::to_string(m.abandoned),
                util::format_general(m.carbon_g)});
  } else {
    row.push_back("0");  // "serving" flag column
  }
  // Pad non-cluster rows up to the trailing self-profiling block, which
  // applies to every row.
  static const std::size_t kColumns = csv_header().size();
  row.insert(row.end(), kColumns - 6 - row.size(), "");
  row.push_back(util::format_general(result.eval_wall_s));
  row.push_back(result.from_cache ? "1" : "0");
  if (result.serving) {
    const auto& m = *result.serving;
    row.push_back(std::to_string(m.sim_events));
    row.push_back(std::to_string(m.sim_event_queue_peak));
    row.push_back(std::to_string(m.service_cache_hits));
    row.push_back(std::to_string(m.service_cache_misses));
  } else {
    row.insert(row.end(), 4, "");
  }
  return row;
}

bool ResultStore::write_csv(const std::string& path) const {
  util::CsvWriter csv(path, csv_header());
  if (!csv.ok()) {
    return false;
  }
  for (const auto& r : results_) {
    csv.add_row(csv_row(r));
  }
  return true;
}

}  // namespace optiplet::engine
