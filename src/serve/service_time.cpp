#include "serve/service_time.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace optiplet::serve {

ServiceTimeOracle::ServiceTimeOracle(std::vector<Tenant> tenants,
                                     accel::Architecture arch)
    : tenants_(std::move(tenants)),
      arch_(arch),
      phase_index_(tenants_.size()) {
  OPTIPLET_REQUIRE(!tenants_.empty(), "oracle needs at least one tenant");
}

LayerSchedule ServiceTimeOracle::build_schedule(const core::RunResult& run) {
  double layer_sum = 0.0;
  for (const auto& lr : run.layers) {
    layer_sum += lr.total_s;
  }
  // A run without a usable per-layer breakdown has no layer boundaries to
  // pipeline on; fabricating a whole-batch stage would pin it to one
  // arbitrary chiplet group. Fail loud — such runs must serve
  // batch-granular.
  OPTIPLET_REQUIRE(!run.layers.empty() && layer_sum > 0.0,
                   "layer schedule needs a per-layer breakdown: " +
                       run.model_name);

  // Stages: maximal runs of consecutive layers on one chiplet group.
  LayerSchedule schedule;
  for (std::size_t i = 0; i < run.layers.size(); ++i) {
    const core::LayerResult& layer = run.layers[i];
    if (schedule.stages.empty() ||
        schedule.stages.back().group != layer.group) {
      PipelineStage stage;
      stage.group = layer.group;
      stage.first_layer = i;
      schedule.stages.push_back(stage);
    }
    PipelineStage& stage = schedule.stages.back();
    stage.layer_count += 1;
    stage.latency_s += layer.total_s;
  }
  double offset = 0.0;
  for (PipelineStage& stage : schedule.stages) {
    stage.start_offset_s = offset;
    offset += stage.latency_s;
    stage.end_offset_s = offset;
  }
  // Pin the chain's end to the run latency exactly: an unstalled stage
  // chain must complete at batch_start + latency_s bit-for-bit.
  schedule.stages.back().end_offset_s = run.latency_s;
  return schedule;
}

const LayerSchedule& ServiceTimeOracle::layer_schedule(std::size_t tenant,
                                                       unsigned batch) {
  const auto key = std::make_pair(tenant, batch);
  if (const auto it = schedules_.find(key); it != schedules_.end()) {
    return it->second;
  }
  return schedules_.emplace(key, build_schedule(batch_run(tenant, batch)))
      .first->second;
}

const core::RunResult& ServiceTimeOracle::batch_run(std::size_t tenant,
                                                    unsigned batch) {
  OPTIPLET_REQUIRE(tenant < tenants_.size(), "unknown tenant index");
  OPTIPLET_REQUIRE(batch >= 1, "batch must be >= 1");
  const auto key = std::make_pair(tenant, batch);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  core::SystemConfig config = tenants_[tenant].config;
  config.batch_size = batch;
  const core::SystemSimulator simulator(config);
  return cache_.emplace(key, simulator.run(tenants_[tenant].model, arch_))
      .first->second;
}

std::uint32_t ServiceTimeOracle::kv_bucket(std::size_t tenant,
                                           std::uint32_t kv_tokens) const {
  OPTIPLET_REQUIRE(tenant < tenants_.size(), "unknown tenant index");
  const auto& spec = tenants_[tenant].transformer;
  OPTIPLET_REQUIRE(spec.has_value(),
                   "kv_bucket on a fixed-shape tenant: " +
                       tenants_[tenant].model.name());
  const std::uint64_t rounded =
      (static_cast<std::uint64_t>(kv_tokens) + kKvBucket - 1) / kKvBucket *
      kKvBucket;
  // The decode graph prices 1 fresh token over `kv` past ones, so the
  // bucket must leave room for the fresh token in the context window.
  const std::uint64_t cap = spec->max_context - 1;
  return static_cast<std::uint32_t>(std::min(rounded, cap));
}

const std::optional<dnn::TransformerSpec>& ServiceTimeOracle::transformer(
    std::size_t tenant) const {
  OPTIPLET_REQUIRE(tenant < tenants_.size(), "unknown tenant index");
  return tenants_[tenant].transformer;
}

const core::RunResult& ServiceTimeOracle::phase_run(std::size_t tenant,
                                                    Phase phase,
                                                    unsigned batch,
                                                    std::uint32_t tokens,
                                                    std::size_t entry) {
  OPTIPLET_REQUIRE(tenant < tenants_.size(), "unknown tenant index");
  OPTIPLET_REQUIRE(batch >= 1, "batch must be >= 1");
  const auto& spec = tenants_[tenant].transformer;
  OPTIPLET_REQUIRE(spec.has_value(),
                   "phase pricing on a fixed-shape tenant: " +
                       tenants_[tenant].model.name());
  PhaseIndex& index = phase_index_[tenant][phase];
  if (batch < index.size() && entry < index[batch].size() &&
      index[batch][entry] != nullptr) {
    ++hits_;
    return *index[batch][entry];
  }
  ++misses_;
  const dnn::Model model = phase == kPrefill
                               ? dnn::make_prefill_graph(*spec, tokens)
                               : dnn::make_decode_graph(*spec, tokens);
  core::SystemConfig config = tenants_[tenant].config;
  config.batch_size = batch;
  const core::SystemSimulator simulator(config);
  const core::RunResult& run =
      phase_store_.emplace_back(simulator.run(model, arch_));
  // Grow only once the point priced: the graph builders have refused a
  // prompt or KV length beyond the context window by now.
  if (index.size() <= batch) {
    index.resize(batch + 1);
  }
  std::vector<const core::RunResult*>& row = index[batch];
  if (row.size() <= entry) {
    row.resize(entry + 1, nullptr);
  }
  row[entry] = &run;
  return run;
}

const core::RunResult& ServiceTimeOracle::prefill_run(std::size_t tenant,
                                                      unsigned batch,
                                                      std::uint32_t tokens) {
  OPTIPLET_REQUIRE(tokens >= 1, "prefill needs at least one token");
  return phase_run(tenant, kPrefill, batch, tokens, tokens);
}

const core::RunResult& ServiceTimeOracle::decode_run(
    std::size_t tenant, unsigned batch, std::uint32_t kv_tokens) {
  const std::uint32_t bucket = kv_bucket(tenant, kv_tokens);
  // Buckets are multiples of kKvBucket except the context cap, which
  // rounds up to an ordinal no smaller bucket takes.
  return phase_run(tenant, kDecode, batch, bucket,
                   (bucket + kKvBucket - 1) / kKvBucket);
}

}  // namespace optiplet::serve
