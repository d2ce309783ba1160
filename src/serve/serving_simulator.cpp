#include "serve/serving_simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "dnn/registry.hpp"
#include "dnn/transformer.hpp"
#include "dnn/zoo.hpp"
#include "obs/recorder.hpp"
#include "serve/arrivals.hpp"
#include "serve/colocation.hpp"
#include "serve/service_time.hpp"
#include "sim/event_queue.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace optiplet::serve {
namespace {

constexpr std::size_t kNoTenant = static_cast<std::size_t>(-1);

/// Most buckets a day curve may grow to.
constexpr std::size_t kMaxCurveBuckets = std::size_t{1} << 22;

/// Refuses a day-curve `bucket=` width too narrow for `what` (a span that
/// ends at `end_s`). Kept out of line: Engine::curve_bucket runs once per
/// batch and only calls it.
[[noreturn, gnu::noinline, gnu::cold]] void refuse_curve_bucket(
    double bucket_s, const char* what, double end_s) {
  throw std::invalid_argument(
      "bucket=" + util::format_general(bucket_s) + " is too narrow for " +
      what + util::format_general(end_s) + " s: the day curve holds " +
      std::to_string(kMaxCurveBuckets) + " buckets");
}

/// Index of an entry in a SlotPool.
using Slot = std::uint32_t;
constexpr Slot kNoSlot = static_cast<Slot>(-1);

/// What a serving event does when it pops (Engine::dispatch). Each kind
/// indexes the state it acts on instead of capturing it.
enum class EventKind : std::uint16_t {
  kArrival,       ///< open-loop arrival TenantState::next_arrival
  kThinkEnd,      ///< a closed-loop user's think time ended
  kRetry,         ///< backoff re-offer of Engine::retries[slot]
  kDeadline,      ///< kDeadline dispatch timer
  kBatchEnd,      ///< whole batch Engine::batches[slot] left the executor
  kIterationEnd,  ///< continuous iteration of TenantState::active ended
  kStageEnd,      ///< current stage of pipelined Engine::batches[slot] ended
  kMetricsTick,   ///< periodic metric snapshot (Engine::tick_period_s)
  kFault,         ///< config.elastic.faults[slot] fires
};

/// One scheduled serving event; `slot` is unused by tenant-level kinds.
/// Eight bytes without padding, so it is built and passed in a register.
struct Event {
  EventKind kind = EventKind::kArrival;
  std::uint16_t tenant = 0;  ///< simulate() caps the tenant count to fit
  Slot slot = 0;
};
static_assert(sizeof(Event) == 8);

[[nodiscard]] Event make_event(EventKind kind, std::size_t tenant,
                               Slot slot = 0) {
  return Event{kind, static_cast<std::uint16_t>(tenant), slot};
}

/// Index-addressed pool with a free list. A slot stays valid until it is
/// released, but a reference into the pool does not survive an acquire()
/// (the backing vector may grow): re-index after any call that can
/// allocate a slot.
template <class T>
class SlotPool {
 public:
  [[nodiscard]] Slot acquire() {
    if (!free_.empty()) {
      const Slot slot = free_.back();
      free_.pop_back();
      return slot;
    }
    OPTIPLET_ASSERT(items_.size() < kNoSlot, "slot pool index space exhausted");
    items_.emplace_back();
    return static_cast<Slot>(items_.size() - 1);
  }

  void release(Slot slot) { free_.push_back(slot); }

  T& operator[](Slot slot) { return items_[slot]; }

  /// Every slot ever handed out is back on the free list.
  [[nodiscard]] bool drained() const { return free_.size() == items_.size(); }

 private:
  std::vector<T> items_;
  std::vector<Slot> free_;
};

/// One pipeline stage resolved against the engine's resource table:
/// a maximal run of consecutive layers whose chiplet group maps to one
/// exclusive resource (an owned group, or the shared-serial pool).
struct ExecStage {
  std::size_t resource = 0;
  /// Prefix offsets within the batch (see serve::PipelineStage): an
  /// unstalled chain telescopes exactly to the batch-granular end time.
  double start_offset_s = 0.0;
  double end_offset_s = 0.0;
  std::size_t first_layer = 0;
  std::size_t layer_count = 0;
};

/// One dispatched batch waiting for an event: a batch advancing through
/// its stage chain in layer-granular mode, or (null `stages`) a whole
/// batch waiting for its end.
struct InFlightBatch {
  std::size_t tenant = 0;
  std::uint64_t id = 0;  ///< per-tenant dispatch sequence (stage chains)
  std::vector<Request> requests;
  const std::vector<ExecStage>* stages = nullptr;  ///< engine-cached
  std::size_t stage = 0;
  /// Start of stage 0 after ReSiPI adjustment: the anchor every
  /// unstalled stage's end time telescopes from.
  double batch_start_s = 0.0;

  [[nodiscard]] const ExecStage& current() const { return (*stages)[stage]; }
};

/// A shed request waiting out its retry backoff.
struct PendingRetry {
  Request request;
  unsigned attempt = 0;
};

/// One unit of work queued on a busy resource: a pipeline stage (its
/// Engine::batches slot), or (kNoSlot) tenant-level work — a whole batch or
/// a continuous iteration.
struct Waiter {
  std::size_t tenant = 0;
  Slot stage = kNoSlot;
  double since_s = 0.0;  ///< when it queued
};

/// An exclusive chiplet-group resource, granted priority-first and FIFO
/// within a class.
struct Resource {
  bool busy = false;
  bool shared = false;
  std::vector<std::size_t> chiplets;  ///< pool-global ids
  std::deque<Waiter> waiters;
  /// Last tenant that executed a stage on this resource — a different
  /// acquirer pays the cross-tenant handoff retune (shared resources only).
  std::size_t last_tenant = kNoTenant;
};

/// One admitted request in a continuous tenant's running set. It has
/// finished once its KV length reaches the request's total tokens.
struct ActiveSeq {
  Request request;
  /// Tokens resident in the KV cache: 0 until the prefill iteration lands
  /// the whole prompt, then +1 per decode step.
  std::uint32_t kv_tokens = 0;
};

/// Mean-shape service time of a variable-length batch of `batch`
/// requests (padding semantics): one prefill at the mean prompt (at least
/// one token), then one decode step per mean generated token, folded
/// left to right. Prices the derived SLA and the kSlaShed estimate.
double mean_shape_batch_s(ServiceTimeOracle& oracle, std::size_t t,
                          unsigned batch, std::uint32_t prefill_mean,
                          std::uint32_t decode_mean) {
  const std::uint32_t pm = std::max<std::uint32_t>(prefill_mean, 1);
  double total = oracle.prefill_run(t, batch, pm).latency_s;
  for (std::uint32_t k = 0; k < decode_mean; ++k) {
    total += oracle.decode_run(t, batch, pm + k).latency_s;
  }
  return total;
}

/// Mutable per-tenant simulation state: what a run changes, plus what
/// set-up derives once. Fixed tenant values are read where they live,
/// the tenant's TenantSetup (Engine::config.tenants[t]) or its queue's
/// BatchingConfig (max_batch already capped to the KV slots).
struct TenantState {
  BatchQueue queue;
  std::vector<double> arrivals;  ///< absolute times, ascending
  std::size_t next_arrival = 0;
  std::uint64_t next_id = 0;
  bool arrivals_done = false;
  bool timer_armed = false;

  // --- closed-loop client pool ---
  std::uint64_t issued = 0;   ///< think timers started (<= requests)
  std::uint64_t arrived = 0;  ///< issued requests that have arrived
  util::Xoshiro256 think_rng{0};

  // --- admission control ---
  /// When the executor is expected to accept its next batch — the
  /// oracle-backed backlog estimate kSlaShed's shed decision runs on.
  double est_free_s = 0.0;
  /// Inter-arrival EMA [s] feeding the shed estimate's batch-fill-wait
  /// term; 0 until two arrivals have been observed.
  double interarrival_ema_s = 0.0;
  double last_arrival_s = -1.0;
  /// Batch formed but waiting for the shared-serial chiplets.
  std::vector<Request> pending;
  bool needs_shared = false;
  /// Tenant-level work (a pending batch or the next continuous iteration)
  /// is queued on the shared pool.
  bool waiting_shared = false;
  std::vector<std::size_t> occupancy;
  std::vector<double> latencies;
  TenantReport report;

  // --- elastic operation ---
  /// Whether this tenant currently holds the shared pool. Releases key on
  /// this, not needs_shared: a re-partition can flip needs_shared while a
  /// batch dispatched under the old plan still holds the lock.
  bool holds_shared = false;
  /// Owned (non-shared) chiplets — the power-gating scope; shared
  /// chiplets never gate because another tenant may be using them.
  std::vector<std::size_t> owned;
  /// Tau-weighted interarrival EMA: the sustained-load signal driving
  /// re-partitioning (separate from interarrival_ema_s, whose fixed
  /// smoothing feeds the admission estimate).
  double gap_ema_s = 0.0;
  /// Gating: when the executor went idle (<0 = busy or gating off).
  double idle_since_s = -1.0;
  /// Retry backoff jitter; isolated stream (seed ^ "retry") so retries
  /// never perturb the arrival/think/shape draws.
  util::Xoshiro256 retry_rng{0};

  // --- variable-length (transformer) serving ---
  /// Requests carry token shapes and are priced per phase (prefill +
  /// decode steps) instead of through the fixed-shape batch run.
  bool var_length = false;
  /// Mean token lengths (synthetic draws and the admission estimate):
  /// the setup's, or a replayed trace's means when it sets none.
  std::uint32_t prefill_mean = 0;
  std::uint32_t decode_mean = 0;
  util::Xoshiro256 shape_rng{0};
  /// Next of the setup's replayed shapes, consumed in arrival order.
  std::uint64_t shape_cursor = 0;
  std::uint64_t kv_bytes_per_token = 0;
  std::uint64_t kv_budget_bytes = 0;
  /// Final-context footprint reserved by every in-flight request; the
  /// budget bound is enforced on this reservation, so actual occupancy
  /// (which only grows token by token) can never exceed it.
  std::uint64_t kv_reserved_bytes = 0;
  std::uint64_t kv_peak_bytes = 0;
  std::uint64_t decode_tokens_done = 0;
  std::vector<double> ttfts;  ///< arrival -> prefill end, per request
  /// Memoized mean-shape batch service time by batch size (admission).
  std::map<unsigned, double> nominal_cache;

  // --- continuous (iteration-level) batching ---
  std::vector<ActiveSeq> active;  ///< the running decode set
  /// Sequences admitted but not yet prefilled: always the last `fresh`
  /// entries of `active`, since admissions happen only between
  /// iterations. The running iteration prefills them (0: it decodes).
  std::size_t fresh = 0;
  bool iter_running = false;  ///< at most one iteration per tenant
  /// Busy-period anchor + running accumulator: iteration k ends at
  /// exactly origin + (accum += dt_k), so an unstalled single-request
  /// period telescopes bit-for-bit to the static whole-request price.
  double origin_s = 0.0;
  double accum_s = 0.0;
  /// Per-busy-period energy accumulator, flushed into report.energy_j at
  /// the next re-anchor (and at finalize): the report total is then the
  /// same per-period left-to-right fold begin_execution_tokens performs,
  /// so the single-user degeneracy holds for energy bit-for-bit too.
  double energy_accum_j = 0.0;

  // --- layer-granular mode ---
  /// Owned-group resource ids by MAC kind (shared kinds resolve to the
  /// pool-global shared resource instead).
  std::vector<std::pair<accel::MacKind, std::size_t>> kind_resource;
  /// Resolved stage chains per batch size (pointers into this map are
  /// handed to in-flight batches; std::map keeps them stable).
  std::map<unsigned, std::vector<ExecStage>> stage_cache;
  /// Batches in flight (a pending one included); bounded by the stage
  /// chain's distinct resources, 1 for whole batches.
  std::size_t inflight = 0;
  std::size_t pipeline_depth = 1;
  std::uint64_t batch_seq = 0;

  explicit TenantState(const BatchingConfig& batching) : queue(batching) {}
};

/// The event-driven serving engine: all state one simulate() call touches.
struct Engine {
  const ServingConfig& config;
  /// Current-generation oracle/plan. Generation 0 lives in simulate()'s
  /// frame; elastic re-partitions push new generations onto gen_oracles /
  /// gen_plans and swap these pointers (all generations stay alive, so
  /// in-flight work and cached references never dangle).
  ServiceTimeOracle* oracle;
  const ColocationPlan* plan;
  sim::EventQueue<Event> events;
  std::vector<TenantState> tenants;
  ServingReport report;

  /// Dispatched batches waiting for a stage-end or batch-end event.
  SlotPool<InFlightBatch> batches;
  /// Shed requests waiting for their retry event.
  SlotPool<PendingRetry> retries;
  /// Metric snapshot cadence (kMetricsTick events; metering runs only).
  double tick_period_s = 0.0;

  // ReSiPI serialization: one reconfiguration window at a time on the
  // shared interposer; a tenant never conflicts with itself (its own
  // reconfigurations are part of its serialized batches).
  std::size_t resipi_holder = kNoTenant;
  double resipi_free_at = 0.0;

  // Exclusive chiplet-group resources. Index 0 is the shared-serial pool
  // (both modes); in layer-granular mode owned groups follow per tenant.
  std::vector<Resource> resources;

  double last_completion_s = 0.0;
  /// Time of the first request to actually arrive, from any source — the
  /// start of the measured serving window.
  double first_arrival_s = std::numeric_limits<double>::infinity();
  /// When the shared-serial chiplet group is expected to free up, per
  /// priority class — the cross-tenant contention term of the kSlaShed
  /// backlog estimate. Kept per class so a high-priority tenant's
  /// estimate only counts equal-or-higher-priority occupancy: the
  /// priority-first grant order means lower-priority backlog cannot delay
  /// it, and charging it anyway over-sheds co-located below-knee streams.
  std::map<unsigned, double> shared_est_free_by_class;
  /// Total KV bytes reserved across tenants (the serve.kv_bytes gauge).
  std::uint64_t kv_total_bytes = 0;

  // --- elastic operation (all inert when config.elastic is default) ---
  /// Later oracle/plan generations created by re-partitions (generation 0
  /// is owned by simulate()'s frame).
  std::vector<std::unique_ptr<ServiceTimeOracle>> gen_oracles;
  std::vector<std::unique_ptr<ColocationPlan>> gen_plans;
  /// Immutable per-tenant demand skeleton + models; re-partitions only
  /// recompute the weights. Populated when the pool can change.
  std::vector<TenantDemand> base_demands;
  std::vector<dnn::Model> base_models;
  /// Current partition weights and their normalized shares (the EMA drift
  /// signal compares demand shares against alloc_share).
  std::vector<double> cur_weights;
  std::vector<double> alloc_share;
  /// <0 until the first arrival; the cooldown doubles as EMA warm-up.
  double last_repartition_s = -1.0;
  /// Pool-global fault state (char: vector<bool> has no data()).
  std::vector<char> chiplet_dead;
  std::vector<double> dead_since;
  /// Gated idle seconds per pool chiplet, subtracted from the idle burn.
  std::vector<double> chiplet_gated_s;
  /// Drifted-microring service-latency multiplier (>= 1; exact 1.0 when
  /// no derate fault fired, so `latency * derate_mult` is bit-exact).
  double derate_mult = 1.0;

  // --- observability (null = disabled; every hook is one branch) ---
  obs::Recorder* rec = nullptr;
  int pid = 0;
  std::vector<std::uint64_t> tenant_tracks;
  std::vector<std::uint64_t> exec_tracks;      ///< batch-granular executors
  std::vector<std::uint64_t> resource_tracks;  ///< layer-granular groups
  std::uint64_t resipi_track = 0;

  Engine(const ServingConfig& cfg, ServiceTimeOracle& orc,
         const ColocationPlan& pln)
      : config(cfg), oracle(&orc), plan(&pln) {}

  /// Shed trace span (zero duration, tagged with the shed reason) and
  /// counter. kSlaShed has exactly one reject reason today; the tag keeps
  /// the trace self-describing if more are added.
  void record_shed(std::size_t t, double now) {
    if (rec->metering()) {
      rec->metrics().add("serve.shed");
    }
    if (rec->tracing()) {
      rec->trace().add_complete(
          "request", "request", now, now, pid, tenant_tracks[t],
          {obs::arg("tenant", tenants[t].report.name),
           obs::arg("outcome", "shed"),
           obs::arg("shed_reason", "predicted_sla_miss")});
    }
  }

  /// Serialize a ReSiPI window of `window_s` on the shared interposer for
  /// tenant `t`, opening no earlier than `start`: wait out another
  /// tenant's open window (a conflict), then reserve. Returns the
  /// possibly delayed start.
  double resipi_reserve(std::size_t t, double start, double window_s) {
    if (resipi_holder != t && resipi_free_at > start) {
      const double wait = resipi_free_at - start;
      start += wait;
      TenantReport& r = tenants[t].report;
      r.resipi_wait_s += wait;
      r.resipi_conflicts += 1;
      if (rec != nullptr && rec->metering()) {
        rec->metrics().add("resipi.conflicts");
        rec->metrics().add("resipi.wait_s", wait);
      }
    }
    resipi_holder = t;
    // Several of one tenant's batches can be in flight (layer mode), and
    // a handoff may follow its batch window: never roll an earlier,
    // longer reservation backwards.
    resipi_free_at = std::max(resipi_free_at, start + window_s);
    return start;
  }

  /// A batch's own reconfiguration window, reserved from `start` (which
  /// any conflict wait delays). The PCM writes happen inside the run and
  /// are charged in its latency; the window only excludes *other*
  /// tenants' writes. Returns 0 when the run retunes nothing.
  double reserve_batch_window(std::size_t t, const core::RunResult& run,
                              double& start) {
    if (config.arch != accel::Architecture::kSiph2p5D ||
        run.resipi_reconfigurations == 0) {
      return 0.0;
    }
    const double window_s =
        std::min(run.latency_s,
                 static_cast<double>(run.resipi_reconfigurations) *
                     config.system.tech.photonic.pcm.write_time_s);
    start = resipi_reserve(t, start, window_s);
    return window_s;
  }

  /// Charge the executor-busy interval [start, end) to tenant `t` and to
  /// every chiplet it occupies. Every mode keeps batch-granular executor
  /// semantics (the whole occupancy is "this tenant's executor working"),
  /// so utilization is comparable across modes.
  void charge_busy(std::size_t t, double start, double end) {
    TenantState& ts = tenants[t];
    for (const std::size_t c : ts.occupancy) {
      report.chiplet_busy_s[c] += end - start;
    }
    ts.report.busy_s += end - start;
  }

  /// Record one execution interval: its BatchTrace (record_batches) over
  /// the chiplets actually `locked`, and the ReSiPI retune span it opened
  /// on the interposer track. A pipeline stage passes its in-flight batch
  /// for the layer slice and dispatch id.
  void record_batch(std::size_t t, unsigned size, double start, double end,
                    double resipi_window_s,
                    const std::vector<std::size_t>& locked,
                    const InFlightBatch* stage_of = nullptr,
                    const char* retune_kind = "batch_window") {
    if (config.record_batches) {
      BatchTrace trace;
      trace.tenant = t;
      trace.size = size;
      trace.start_s = start;
      trace.end_s = end;
      trace.chiplets = locked;
      trace.resipi_start_s = start;
      trace.resipi_end_s = start + resipi_window_s;
      if (stage_of != nullptr) {
        const ExecStage& s = stage_of->current();
        trace.first_layer = s.first_layer;
        trace.layer_count = s.layer_count;
        trace.batch_id = stage_of->id;
      }
      report.batches.push_back(std::move(trace));
    }
    if (rec != nullptr && rec->tracing() && resipi_window_s > 0.0) {
      rec->trace().add_complete("retune", "resipi", start,
                                start + resipi_window_s, pid, resipi_track,
                                {obs::arg("tenant", tenants[t].report.name),
                                 obs::arg("kind", retune_kind)});
    }
  }

  /// Record that a tenant of `priority` holds shared-serial capacity
  /// until `end` (feeds the class-aware admission estimate).
  void note_shared_busy_until(unsigned priority, double end) {
    double& est = shared_est_free_by_class[priority];
    est = std::max(est, end);
  }

  /// Expected shared-pool free time as seen by a tenant of `priority`:
  /// only equal-or-higher-priority occupancy counts (grants are
  /// priority-first, so lower-priority backlog never delays this tenant
  /// beyond the batch already executing).
  [[nodiscard]] double shared_est_for(unsigned priority) const {
    double est = 0.0;
    for (const auto& [cls, end] : shared_est_free_by_class) {
      if (cls <= priority) {
        est = std::max(est, end);
      }
    }
    return est;
  }

  [[nodiscard]] std::uint64_t footprint_bytes(const TenantState& ts,
                                              const RequestShape& shape) {
    return shape.total_tokens() * ts.kv_bytes_per_token;
  }

  /// Reserve (+) or release (-) KV bytes for tenant `t`, tracking the
  /// per-tenant peak and the serve.kv_bytes gauge.
  void kv_update(std::size_t t, std::uint64_t bytes, bool reserve) {
    TenantState& ts = tenants[t];
    if (reserve) {
      ts.kv_reserved_bytes += bytes;
      kv_total_bytes += bytes;
      ts.kv_peak_bytes = std::max(ts.kv_peak_bytes, ts.kv_reserved_bytes);
    } else {
      OPTIPLET_ASSERT(ts.kv_reserved_bytes >= bytes && kv_total_bytes >= bytes,
                      "KV release exceeds the outstanding reservation");
      ts.kv_reserved_bytes -= bytes;
      kv_total_bytes -= bytes;
    }
    if (rec != nullptr && rec->metering()) {
      rec->metrics().set("serve.kv_bytes",
                         static_cast<double>(kv_total_bytes));
    }
  }

  /// mean_shape_batch_s of a variable-length tenant at the current
  /// oracle, memoized per batch size. Feeds the kSlaShed estimate.
  double nominal_batch_s(std::size_t t, unsigned batch) {
    TenantState& ts = tenants[t];
    if (const auto it = ts.nominal_cache.find(batch);
        it != ts.nominal_cache.end()) {
      return it->second;
    }
    const double total = mean_shape_batch_s(*oracle, t, batch,
                                            ts.prefill_mean, ts.decode_mean);
    ts.nominal_cache.emplace(batch, total);
    return total;
  }

  /// Take the shared-serial pool for tenant `t`'s tenant-level work (a
  /// whole batch or a continuous iteration); true when the tenant needs
  /// no shared kind. False = queued on resources[0] beside any stage
  /// waiters; release_resource grants it later through grant_tenant.
  [[nodiscard]] bool acquire_shared(std::size_t t) {
    TenantState& ts = tenants[t];
    if (!ts.needs_shared) {
      return true;
    }
    Resource& r = resources[0];
    if (r.busy) {
      r.waiters.emplace_back(t, kNoSlot, events.now());
      ts.waiting_shared = true;
      return false;
    }
    r.busy = true;
    ts.holds_shared = true;
    return true;
  }

  /// Hand the still-held shared pool to tenant `t`'s queued work.
  void grant_tenant(std::size_t t) {
    TenantState& ts = tenants[t];
    ts.waiting_shared = false;
    ts.holds_shared = true;
    if (ts.queue.config().policy == BatchPolicy::kContinuous) {
      continuous_iterate(t);
    } else {
      begin_execution(t, std::exchange(ts.pending, {}));
    }
  }

  /// Release the shared pool after tenant-level work. Keyed on
  /// holds_shared, not needs_shared: a re-partition may have flipped
  /// needs_shared while the work held the lock.
  void release_shared(std::size_t t) {
    TenantState& ts = tenants[t];
    if (ts.holds_shared) {
      ts.holds_shared = false;
      release_resource(0);
    }
  }

  /// Per-phase spans of a variable-length batch on the tenant's executor
  /// track: the MAC-bound prefill and the bandwidth-bound decode tail.
  void record_phase_spans(std::size_t t, double start, double prefill_end,
                          double end) {
    if (!rec->tracing()) {
      return;
    }
    obs::TraceBuffer& tb = rec->trace();
    tb.add_complete("prefill", "phase", start, prefill_end, pid,
                    exec_tracks[t],
                    {obs::arg("tenant", tenants[t].report.name)});
    if (end > prefill_end) {
      tb.add_complete("decode", "phase", prefill_end, end, pid,
                      exec_tracks[t],
                      {obs::arg("tenant", tenants[t].report.name)});
    }
  }

  /// Request spans ([arrival, completion], one per request) plus the
  /// latency histograms (global and per priority class).
  void record_completions(std::size_t t, const std::vector<Request>& batch,
                          double now) {
    TenantState& ts = tenants[t];
    if (rec->metering()) {
      obs::MetricsRegistry& m = rec->metrics();
      m.add("serve.completed", static_cast<double>(batch.size()));
      const std::string cls =
          "serve.class" + std::to_string(ts.report.priority) + ".latency";
      for (const Request& r : batch) {
        m.observe("serve.latency", now - r.arrival_s);
        m.observe(cls, now - r.arrival_s);
      }
    }
    if (rec->tracing()) {
      obs::TraceBuffer& tb = rec->trace();
      for (const Request& r : batch) {
        tb.add_complete("request", "request", r.arrival_s, now, pid,
                        tenant_tracks[t],
                        {obs::arg("tenant", ts.report.name),
                         obs::arg("request", r.id),
                         obs::arg("outcome", "completed"),
                         obs::arg("latency_s", now - r.arrival_s)});
      }
    }
  }

  /// Count one dispatch group of `size` requests (a whole batch, stage 0
  /// of a pipelined batch, or a prefill iteration) retuned to `run`'s
  /// gateway configuration.
  void count_dispatch(std::size_t t, unsigned size,
                      const core::RunResult& run) {
    tenants[t].report.batches += 1;
    if (rec != nullptr && rec->metering()) {
      obs::MetricsRegistry& m = rec->metrics();
      m.add("serve.batches");
      m.observe("serve.batch_size", static_cast<double>(size));
      m.set("resipi.active_gateways", run.mean_active_gateways);
    }
  }

  /// Charge `energy_j` of work starting at `start` to `into` (the tenant
  /// report, or a continuous tenant's busy-period accumulator), to the
  /// day-curve bucket of `start` and to the serve.energy_j counter.
  void charge_energy(double& into, double start, double energy_j) {
    into += energy_j;
    if (DayPoint* bucket = curve_bucket(start)) {
      bucket->energy_j += energy_j;
    }
    if (rec != nullptr && rec->metering()) {
      rec->metrics().add("serve.energy_j", energy_j);
    }
  }

  /// Batch-granular trace: per-request queue spans closing at the batch
  /// start and the batch span on the tenant's executor track.
  void record_batch_trace(std::size_t t, const std::vector<Request>& batch,
                          double start, double end) {
    if (!rec->tracing()) {
      return;
    }
    TenantState& ts = tenants[t];
    obs::TraceBuffer& tb = rec->trace();
    for (const Request& r : batch) {
      tb.add_complete("queue", "queue", r.arrival_s, start, pid,
                      tenant_tracks[t], {obs::arg("request", r.id)});
    }
    tb.add_complete(
        "batch", "exec", start, end, pid, exec_tracks[t],
        {obs::arg("tenant", ts.report.name),
         obs::arg("batch", ts.report.batches - 1),
         obs::arg("size", static_cast<std::uint64_t>(batch.size()))});
  }

  /// Layer-granular trace: stage spans live on their chiplet-group track
  /// (exclusive FIFO resources, so spans never overlap within a track);
  /// stage 0 also closes the batch's queue spans.
  void record_stage_trace(const InFlightBatch& b, const ExecStage& s,
                          double start, double end) {
    if (!rec->tracing()) {
      return;
    }
    const TenantState& ts = tenants[b.tenant];
    obs::TraceBuffer& tb = rec->trace();
    if (b.stage == 0) {
      for (const Request& r : b.requests) {
        tb.add_complete("queue", "queue", r.arrival_s, start, pid,
                        tenant_tracks[b.tenant], {obs::arg("request", r.id)});
      }
    }
    tb.add_complete(
        "stage", "exec", start, end, pid, resource_tracks[s.resource],
        {obs::arg("tenant", ts.report.name), obs::arg("batch", b.id),
         obs::arg("size", static_cast<std::uint64_t>(b.requests.size())),
         obs::arg("first_layer", static_cast<std::uint64_t>(s.first_layer)),
         obs::arg("layer_count",
                  static_cast<std::uint64_t>(s.layer_count))});
  }

  /// Periodic metric snapshot: sample the queue-depth / in-flight gauges
  /// and emit one row per live series, re-arming while any tenant is
  /// active. Read-only observer — it never touches engine state, so an
  /// attached recorder cannot change simulation results.
  void metrics_tick() {
    bool active = false;
    std::size_t depth = 0;
    std::size_t inflight = 0;
    for (const TenantState& ts : tenants) {
      depth += ts.queue.size();
      inflight += ts.inflight;
      active = active || !ts.arrivals_done || ts.inflight > 0 ||
               ts.queue.size() > 0 || ts.waiting_shared ||
               !ts.active.empty() || ts.iter_running;
    }
    obs::MetricsRegistry& m = rec->metrics();
    m.set("serve.queue_depth", static_cast<double>(depth));
    m.set("serve.inflight_batches", static_cast<double>(inflight));
    m.snapshot(events.now());
    if (active) {
      events.schedule_in(tick_period_s,
                         make_event(EventKind::kMetricsTick, 0));
    }
  }

  // ------------------------------------------------------------------
  // Elastic operation (docs/elastic-operation.md). Every hook below is a
  // no-op branch when config.elastic is the inert default — the static
  // code path is bit-identical (degeneracy-tested).

  /// Day-curve bucket covering time `t`, growing the curve as needed;
  /// null when the curve is disabled.
  DayPoint* curve_bucket(double t) {
    const double bucket_s = config.elastic.curve_bucket_s;
    if (bucket_s <= 0.0) {
      return nullptr;
    }
    const auto idx =
        static_cast<std::size_t>(std::max(t, 0.0) / bucket_s);
    if (idx >= kMaxCurveBuckets) {
      // Open-loop arrivals were checked at set-up; a closed loop (or a
      // run serving long after its last arrival) learns its span here.
      refuse_curve_bucket(bucket_s, "a run that reached ", t);
    }
    if (report.day_curve.size() <= idx) {
      const std::size_t old_size = report.day_curve.size();
      report.day_curve.resize(idx + 1);
      for (std::size_t i = old_size; i < report.day_curve.size(); ++i) {
        report.day_curve[i].t0_s = static_cast<double>(i) * bucket_s;
        report.day_curve[i].dt_s = bucket_s;
      }
    }
    return &report.day_curve[idx];
  }

  /// Rebuild the live pool minus dead chiplets. `id_map` maps the reduced
  /// pool-global ids the new plan uses back to original ids (valid because
  /// partition ids are assigned sequentially over groups in group order,
  /// and removing chiplets preserves that order).
  [[nodiscard]] accel::PlatformSpec alive_platform(
      std::vector<std::size_t>& id_map) const {
    accel::PlatformSpec spec = config.system.compute_2p5d;
    id_map.clear();
    std::size_t id = 0;
    for (auto& group : spec.groups) {
      std::size_t alive = 0;
      for (std::size_t c = 0; c < group.chiplet_count; ++c, ++id) {
        if (id >= chiplet_dead.size() || chiplet_dead[id] == 0) {
          id_map.push_back(id);
          ++alive;
        }
      }
      group.chiplet_count = alive;
    }
    return spec;
  }

  static std::vector<std::size_t> remap_ids(
      std::vector<std::size_t> ids, const std::vector<std::size_t>& id_map) {
    for (std::size_t& id : ids) {
      id = id_map[id];
    }
    return ids;
  }

  /// Re-partition the (alive) pool at the given weights and swap in a new
  /// oracle/plan generation. Charges exactly one serialized ReSiPI
  /// PCM-write window on the interposer per call, plus write energy for
  /// every chiplet that changed hands.
  void repartition(double now, const std::vector<double>& weights,
                   const char* reason) {
    last_repartition_s = now;
    cur_weights = weights;
    double total_w = 0.0;
    for (const double w : weights) {
      total_w += w;
    }
    std::vector<std::size_t> id_map;
    const accel::PlatformSpec alive = alive_platform(id_map);
    std::vector<TenantDemand> demands = base_demands;
    for (std::size_t t = 0; t < demands.size(); ++t) {
      demands[t].weight = weights[t];
      alloc_share[t] = weights[t] / total_w;
    }
    // Throws when a dead chiplet emptied a kind some tenant still needs —
    // the pool can no longer serve that model at all.
    auto next = std::make_unique<ColocationPlan>(
        partition_pool(alive, demands, config.system.tech));
    std::vector<ServiceTimeOracle::Tenant> oracle_tenants;
    oracle_tenants.reserve(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      ServiceTimeOracle::Tenant ot{base_models[t], config.system,
                                   oracle->transformer(t)};
      ot.config.compute_2p5d = next->tenants[t].platform;
      oracle_tenants.push_back(std::move(ot));
    }
    gen_oracles.push_back(std::make_unique<ServiceTimeOracle>(
        std::move(oracle_tenants), config.arch));
    // Close open gating gaps against the outgoing ownership before the
    // owned sets change underneath them.
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      close_gate_gap(t, now);
    }
    std::vector<std::size_t> owner(chiplet_dead.size(), kNoTenant);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      for (const std::size_t c : tenants[t].owned) {
        owner[c] = t;
      }
    }
    std::uint64_t rewritten = 0;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      TenantState& ts = tenants[t];
      ts.occupancy = remap_ids(next->occupancy(t), id_map);
      ts.owned = remap_ids(next->tenants[t].owned_chiplets, id_map);
      ts.needs_shared = !next->tenants[t].shared_kinds.empty();
      ts.nominal_cache.clear();
      for (const std::size_t c : ts.owned) {
        if (owner[c] != t) {
          rewritten += 1;  // this gateway retunes for a new tenant
        }
      }
    }
    gen_plans.push_back(std::move(next));
    plan = gen_plans.back().get();
    oracle = gen_oracles.back().get();
    // One PCM-write window, serialized on the shared interposer exactly
    // like a batch reconfiguration: every tenant's next retune waits.
    const double write_s = config.system.tech.photonic.pcm.write_time_s;
    resipi_free_at = std::max(resipi_free_at, now) + write_s;
    resipi_holder = kNoTenant;
    report.metrics.repartitions += 1;
    report.metrics.repartition_resipi_s += write_s;
    report.ledger.charge_energy(
        power::Category::kServingRepartition,
        static_cast<double>(rewritten) *
            config.system.tech.photonic.pcm.write_energy_j);
    if (rec != nullptr) {
      if (rec->metering()) {
        rec->metrics().add("elastic.repartitions");
      }
      if (rec->tracing()) {
        rec->trace().add_complete("repartition", "resipi", now,
                                  now + write_s, pid, resipi_track,
                                  {obs::arg("reason", std::string(reason)),
                                   obs::arg("rewritten", rewritten)});
      }
    }
  }

  /// Update the EMA load signal on an arrival `gap` after the tenant's
  /// previous one (none for its first) and trigger a re-partition once the
  /// demand shares drift past the threshold (cooldown-limited).
  void elastic_observe_arrival(std::size_t t, double now,
                               std::optional<double> gap) {
    TenantState& ts = tenants[t];
    if (gap) {
      if (ts.gap_ema_s <= 0.0) {
        ts.gap_ema_s = *gap;
      } else {
        // Irregular-sample EMA: weight decays with the elapsed gap.
        const double alpha =
            1.0 - std::exp(-*gap / config.elastic.ema_tau_s);
        ts.gap_ema_s = alpha * *gap + (1.0 - alpha) * ts.gap_ema_s;
      }
    }
    if (last_repartition_s < 0.0) {
      last_repartition_s = now;  // cooldown clock starts at first arrival
      return;
    }
    if (tenants.size() < 2 ||
        now - last_repartition_s < config.elastic.cooldown_s) {
      return;
    }
    double total_rate = 0.0;
    std::vector<double> rate(tenants.size(), 0.0);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      if (tenants[i].gap_ema_s <= 0.0) {
        return;  // no signal from every tenant yet
      }
      rate[i] = 1.0 / tenants[i].gap_ema_s;
      total_rate += rate[i];
    }
    double drift = 0.0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      drift = std::max(drift,
                       std::abs(rate[i] / total_rate - alloc_share[i]));
    }
    if (drift <= config.elastic.shift_threshold) {
      return;
    }
    // Quantize demand shares to sixteenths (min one) so near-identical
    // signals hit the same partition and the plan does not churn.
    std::vector<double> weights(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      weights[i] = static_cast<double>(std::max<long>(
          1, std::lround(16.0 * rate[i] / total_rate)));
    }
    if (weights == cur_weights) {
      last_repartition_s = now;  // evaluated; nothing would change
      return;
    }
    repartition(now, weights, "load_shift");
  }

  /// Inject one armed fault: apply the bandwidth derate, kill the
  /// chiplet, and re-partition around the dead hardware (ignoring the
  /// policy cooldown — a fault is not a load shift).
  void apply_fault(const FaultSpec& fault) {
    const double now = events.now();
    report.metrics.faults_injected += 1;
    if (fault.bandwidth_derate < 1.0) {
      derate_mult /= fault.bandwidth_derate;
    }
    bool killed = false;
    const auto c = static_cast<std::size_t>(fault.chiplet);
    if (fault.chiplet >= 0 && chiplet_dead[c] == 0) {
      chiplet_dead[c] = 1;
      dead_since[c] = now;
      killed = true;
    }
    if (rec != nullptr) {
      if (rec->metering()) {
        rec->metrics().add("elastic.faults");
      }
      if (rec->tracing()) {
        rec->trace().add_instant(
            "fault", "fault", now, pid, resipi_track,
            {obs::arg("chiplet", static_cast<double>(fault.chiplet)),
             obs::arg("derate", fault.bandwidth_derate)});
      }
    }
    if (killed) {
      repartition(now, cur_weights, "fault");
    }
  }

  /// Close a tenant's open gating gap at `now`: the idle time beyond
  /// gate_after_s was spent with its owned lasers/gateways dark. Returns
  /// the gated wall-seconds (0 when the gap never crossed the threshold).
  /// Lazy — no timer events, so an inert run's event count is untouched.
  double close_gate_gap(std::size_t t, double now) {
    TenantState& ts = tenants[t];
    if (!config.elastic.gate || ts.idle_since_s < 0.0) {
      return 0.0;
    }
    const double gated = now - ts.idle_since_s - config.elastic.gate_after_s;
    ts.idle_since_s = now;  // continuing idleness re-measures from here
    if (gated <= 0.0) {
      return 0.0;
    }
    ts.report.gate_events += 1;
    ts.report.gated_idle_s += gated * static_cast<double>(ts.owned.size());
    for (const std::size_t c : ts.owned) {
      chiplet_gated_s[c] += gated;
    }
    if (rec != nullptr) {
      if (rec->metering()) {
        rec->metrics().add("elastic.gate_events");
        rec->metrics().add("elastic.gated_idle_s", gated);
      }
      if (rec->tracing()) {
        rec->trace().add_complete("gated", "gate", now - gated, now, pid,
                                  tenant_tracks[t],
                                  {obs::arg("tenant", ts.report.name)});
      }
    }
    return gated;
  }

  /// Gating hook at dispatch: returns the batch's start time, delayed by
  /// the wake latency when the tenant's hardware had gated.
  double elastic_wake(std::size_t t, double now) {
    TenantState& ts = tenants[t];
    if (!config.elastic.gate) {
      return now;
    }
    const double gated = close_gate_gap(t, now);
    ts.idle_since_s = -1.0;  // busy again
    return gated > 0.0 ? now + config.elastic.wake_s : now;
  }

  /// Abandoned-request span (retry budget exhausted) and counter.
  void record_abandoned(std::size_t t, const Request& r, double now) {
    if (rec->metering()) {
      rec->metrics().add("serve.abandoned");
    }
    if (rec->tracing()) {
      rec->trace().add_complete(
          "request", "request", r.arrival_s, now, pid, tenant_tracks[t],
          {obs::arg("tenant", tenants[t].report.name),
           obs::arg("outcome", "abandoned"),
           obs::arg("attempts",
                    static_cast<std::uint64_t>(
                        config.elastic.retry_max_attempts))});
    }
  }

  /// One request reaches the tenant: count it, run admission, enqueue or
  /// shed, and poke the dispatcher. Shared by every arrival source.
  void arrive(std::size_t t) {
    TenantState& ts = tenants[t];
    const TenantSetup& setup = config.tenants[t];
    const double now = events.now();
    first_arrival_s = std::min(first_arrival_s, now);
    Request request{ts.next_id++, now, {}};
    if (ts.var_length) {
      // Replayed shapes are consumed in arrival-event order; rows without
      // token columns (and synthetic arrivals) draw around the means.
      if (ts.shape_cursor < setup.trace_shapes.size()) {
        request.shape = setup.trace_shapes[ts.shape_cursor++];
      }
      if (!request.shape.variable_length()) {
        request.shape = draw_request_shape(ts.prefill_mean, ts.decode_mean,
                                           setup.token_spread, ts.shape_rng);
      }
      OPTIPLET_REQUIRE(request.shape.variable_length(),
                       "variable-length tenant received a request without "
                       "a prompt: " +
                           ts.report.name);
    }
    ts.report.offered += 1;
    if (rec != nullptr && rec->metering()) {
      rec->metrics().add("serve.offered");
    }
    if (DayPoint* bucket = curve_bucket(now)) {
      bucket->offered += 1;
    }
    std::optional<double> gap;
    if (ts.last_arrival_s >= 0.0) {
      gap = now - ts.last_arrival_s;
      ts.interarrival_ema_s = ts.interarrival_ema_s == 0.0
                                  ? *gap
                                  : 0.25 * *gap + 0.75 * ts.interarrival_ema_s;
    }
    ts.last_arrival_s = now;
    if (config.elastic.repartitioning()) {
      elastic_observe_arrival(t, now, gap);
    }
    offer(t, std::move(request), 0);
  }

  /// Admission + enqueue for a fresh arrival (attempt 0) or a backoff
  /// re-offer. A shed with retry budget left defers and re-offers the
  /// same request (same id/arrival/shape — no extra arrival or token RNG
  /// draws); an exhausted budget abandons it.
  void offer(std::size_t t, Request request, unsigned attempt) {
    TenantState& ts = tenants[t];
    const double now = events.now();
    if (config.tenants[t].admission == AdmissionPolicy::kSlaShed &&
        !admit(t)) {
      if (attempt < config.elastic.retry_max_attempts) {
        // Seeded exponential backoff with jitter: attempt k re-offers
        // after backoff * 2^k * U[1, 2).
        const double backoff = config.elastic.retry_backoff_s *
                               std::ldexp(1.0, static_cast<int>(attempt)) *
                               (1.0 + ts.retry_rng.next_double());
        ts.report.retries += 1;
        if (rec != nullptr && rec->metering()) {
          rec->metrics().add("serve.retries");
        }
        const Slot slot = retries.acquire();
        retries[slot] = PendingRetry{request, attempt};
        events.schedule_in(backoff, make_event(EventKind::kRetry, t, slot));
        return;
      }
      if (config.elastic.retrying()) {
        ts.report.abandoned += 1;
        if (rec != nullptr) {
          record_abandoned(t, request, now);
        }
      } else {
        ts.report.shed += 1;
        if (rec != nullptr) {
          record_shed(t, now);
        }
      }
      issue_closed(t);  // the user gets its rejection notice immediately
      return;
    }
    ts.queue.push(request);
    try_dispatch(t);
  }

  /// kSlaShed's enqueue-time prediction: serve the backlog ahead of this
  /// request at the policy's dispatch size and see whether its completion
  /// can still make the tenant's SLA. Service times come from the
  /// memoized ServiceTimeOracle; layer-granular mode amortizes the queued
  /// batches over the pipeline depth (the steady-state inter-completion
  /// time), so the estimate is honest about overlap. Two refinements keep
  /// the estimate honest *below* the knee, where false sheds cost goodput:
  ///   * batching tenants charge the batch-fill wait (inter-arrival EMA
  ///     times the seats left in the tail batch, capped by the deadline
  ///     policy's max wait) and price the request's own batch at its
  ///     *expected* dispatch size instead of always max_batch;
  ///   * tenants on the scarce shared-serial group start their backlog at
  ///     the group's expected free time when another tenant holds it.
  [[nodiscard]] bool admit(std::size_t t) {
    TenantState& ts = tenants[t];
    const double now = events.now();
    const BatchingConfig& batching = ts.queue.config();
    const unsigned cap = batching.policy == BatchPolicy::kNone ||
                                 batching.policy == BatchPolicy::kContinuous
                             ? 1
                             : batching.max_batch;
    const double batch_s = (ts.var_length
                                ? nominal_batch_s(t, cap)
                                : oracle->batch_run(t, cap).latency_s) *
                           derate_mult;
    double amortized_s =
        config.pipeline == PipelineMode::kLayerGranular && !ts.var_length
            ? batch_s / static_cast<double>(
                            std::max<std::size_t>(ts.pipeline_depth, 1))
            : batch_s;
    if (batching.policy == BatchPolicy::kContinuous) {
      // Continuous batching drains the queue at slot parallelism (the
      // KV-capped max_batch): queued requests complete one amortized
      // service apart, not back to back.
      amortized_s = batch_s / static_cast<double>(batching.max_batch);
    }
    const auto queued_batches = static_cast<double>(ts.queue.size() / cap);
    double backlog_start_s = ts.est_free_s;
    if (ts.needs_shared) {
      backlog_start_s =
          std::max(backlog_start_s, shared_est_for(ts.report.priority));
    }
    // The request joins the tail partial batch at `position`; `need` more
    // arrivals fill it.
    const auto position = static_cast<unsigned>(ts.queue.size() % cap) + 1;
    const unsigned need = cap - position;
    const double gap = ts.interarrival_ema_s;
    double fill_s = 0.0;
    unsigned dispatch_size = cap;
    if (batching.policy == BatchPolicy::kDeadline) {
      const double fill_eta_s =
          gap > 0.0 ? static_cast<double>(need) * gap
                    : std::numeric_limits<double>::infinity();
      if (fill_eta_s <= batching.max_wait_s) {
        fill_s = fill_eta_s;
      } else {
        // The deadline fires first: the batch goes out partial.
        fill_s = batching.max_wait_s;
        dispatch_size =
            position +
            (gap > 0.0
                 ? static_cast<unsigned>(batching.max_wait_s / gap)
                 : 0);
      }
    } else if (batching.policy == BatchPolicy::kFixedSize) {
      fill_s = gap > 0.0 ? static_cast<double>(need) * gap : 0.0;
    }
    const double own_batch_s =
        dispatch_size == cap
            ? batch_s
            : (ts.var_length ? nominal_batch_s(t, dispatch_size)
                             : oracle->batch_run(t, dispatch_size).latency_s) *
                  derate_mult;
    const double predicted_latency_s = std::max(backlog_start_s - now, 0.0) +
                                       queued_batches * amortized_s +
                                       fill_s + own_batch_s;
    return predicted_latency_s <= ts.report.sla_s;
  }

  /// Closed loop: one user draws its think time and schedules its next
  /// request, spending one unit of the tenant's issue budget. No-op for
  /// open-loop tenants and once the budget is spent.
  void issue_closed(std::size_t t) {
    TenantState& ts = tenants[t];
    const TenantSetup& setup = config.tenants[t];
    if (setup.source != ArrivalSource::kClosedLoop ||
        ts.issued >= setup.requests) {
      return;
    }
    ts.issued += 1;
    const double think_s = ts.think_rng.next_exponential(setup.think_s);
    events.schedule_in(think_s, make_event(EventKind::kThinkEnd, t));
  }

  /// kThinkEnd: the user's request arrives.
  void end_think(std::size_t t) {
    TenantState& ts = tenants[t];
    ts.arrived += 1;
    // The last budgeted issue has arrived: flush partial batches.
    if (ts.issued >= config.tenants[t].requests && ts.arrived == ts.issued) {
      ts.arrivals_done = true;
    }
    arrive(t);
  }

  /// Schedule the open-loop arrival at index next_arrival; one is pending
  /// per tenant at a time.
  void schedule_arrival(std::size_t t) {
    const TenantState& ts = tenants[t];
    events.schedule_at(ts.arrivals[ts.next_arrival],
                       make_event(EventKind::kArrival, t));
  }

  /// kArrival: chain the next arrival (or close the stream), then serve
  /// this one.
  void open_arrival(std::size_t t) {
    TenantState& ts = tenants[t];
    ts.next_arrival += 1;
    if (ts.next_arrival < ts.arrivals.size()) {
      schedule_arrival(t);
    } else {
      ts.arrivals_done = true;
    }
    arrive(t);
  }

  /// Dispatch ready batches while the tenant has pipeline depth to spare:
  /// a stage chain in layer-granular mode, else a whole batch at depth 1 —
  /// including variable-length tenants under layer mode, whose
  /// dense-affine stage chain collapses to one stage, so whole-batch
  /// execution is the pipelined schedule.
  void try_dispatch(std::size_t t) {
    TenantState& ts = tenants[t];
    if (ts.queue.config().policy == BatchPolicy::kContinuous) {
      continuous_step(t);
      return;
    }
    const bool staged =
        config.pipeline == PipelineMode::kLayerGranular && !ts.var_length;
    while (ts.inflight < ts.pipeline_depth) {
      if (!ts.queue.ready(events.now(), ts.arrivals_done)) {
        arm_deadline_timer(t);
        return;
      }
      std::vector<Request> batch = ts.queue.take(ts.arrivals_done);
      ts.inflight += 1;
      if (staged) {
        const std::vector<ExecStage>& stages =
            exec_stages(t, static_cast<unsigned>(batch.size()));
        const Slot slot = batches.acquire();
        InFlightBatch& b = batches[slot];
        b.tenant = t;
        b.id = ts.batch_seq++;
        b.requests = std::move(batch);
        b.stages = &stages;
        b.stage = 0;
        request_stage(slot);
      } else if (acquire_shared(t)) {
        begin_execution(t, std::move(batch));
      } else {
        ts.pending = std::move(batch);
      }
    }
  }

  /// Arm the kDeadline timeout dispatch for the queue head, if needed.
  void arm_deadline_timer(std::size_t t) {
    TenantState& ts = tenants[t];
    const auto deadline = ts.queue.next_deadline();
    if (deadline && !ts.timer_armed) {
      ts.timer_armed = true;
      events.schedule_at(std::max(*deadline, events.now()),
                         make_event(EventKind::kDeadline, t));
    }
  }

  void begin_execution(std::size_t t, std::vector<Request> batch) {
    if (tenants[t].var_length) {
      begin_execution_tokens(t, std::move(batch));
      return;
    }
    const core::RunResult& run =
        oracle->batch_run(t, static_cast<unsigned>(batch.size()));
    report.ledger.merge(run.ledger);
    const double end =
        launch_batch(t, batch, run, run.latency_s, run.energy_j).second;
    schedule_batch_end(t, end, std::move(batch));
  }

  /// Park a whole batch in the slab until its kBatchEnd event at `end`.
  void schedule_batch_end(std::size_t t, double end,
                          std::vector<Request> batch) {
    const Slot slot = batches.acquire();
    InFlightBatch& b = batches[slot];
    b.tenant = t;
    b.requests = std::move(batch);
    b.stages = nullptr;
    events.schedule_at(end, make_event(EventKind::kBatchEnd, t, slot));
  }

  /// Move a finished batch's requests out of the slab and free its slot,
  /// before complete() can dispatch into a new one.
  std::vector<Request> release_batch(Slot slot) {
    std::vector<Request> done = std::move(batches[slot].requests);
    batches.release(slot);
    return done;
  }

  /// Start one whole batch the caller has priced at `service_s` seconds
  /// and `energy_j` joules; `run` is the run whose gateway configuration
  /// it retunes to. Applies the wake and the ReSiPI window, charges busy
  /// time and energy, records the batch, and returns its [start, end).
  std::pair<double, double> launch_batch(std::size_t t,
                                         const std::vector<Request>& batch,
                                         const core::RunResult& run,
                                         double service_s, double energy_j) {
    TenantState& ts = tenants[t];
    const auto batch_size = static_cast<unsigned>(batch.size());
    double start = elastic_wake(t, events.now());
    const double resipi_window_s = reserve_batch_window(t, run, start);
    // derate_mult is exactly 1.0 unless a drift fault fired, so the
    // multiply is bit-exact on the static path.
    const double end = start + service_s * derate_mult;
    ts.est_free_s = end;
    if (ts.needs_shared) {
      note_shared_busy_until(ts.report.priority, end);
    }
    charge_busy(t, start, end);
    count_dispatch(t, batch_size, run);
    charge_energy(ts.report.energy_j, start, energy_j);
    if (rec != nullptr) {
      record_batch_trace(t, batch, start, end);
    }
    record_batch(t, batch_size, start, end, resipi_window_s, ts.occupancy);
    return {start, end};
  }

  /// Variable-length counterpart of begin_execution: the batch is priced
  /// per phase with padding semantics — one prefill at the longest prompt
  /// (weights amortize over the batch exactly as in a fixed-shape run),
  /// then one decode step per generated token up to the longest
  /// generation, each step attending the padded KV length. The total
  /// accumulates left-to-right over (prefill, d1, d2, ...) — the same
  /// fold the continuous engine's per-iteration accumulator performs — so
  /// a single-request kNone batch and an unstalled continuous busy period
  /// complete at bit-identical times. ReSiPI derives from the prefill run
  /// only: decode steps re-stream the same weights through the same
  /// gateway configuration, so nothing retunes between iterations.
  void begin_execution_tokens(std::size_t t, std::vector<Request> batch) {
    TenantState& ts = tenants[t];
    const auto batch_size = static_cast<unsigned>(batch.size());
    std::uint32_t pmax = 1;
    std::uint32_t dmax = 0;
    std::uint64_t footprint = 0;
    for (const Request& r : batch) {
      pmax = std::max(pmax, r.shape.prefill_tokens);
      dmax = std::max(dmax, r.shape.decode_tokens);
      footprint += footprint_bytes(ts, r.shape);
    }
    const core::RunResult& pre = oracle->prefill_run(t, batch_size, pmax);
    double total_s = pre.latency_s;
    double energy_j = pre.energy_j;
    report.ledger.merge(pre.ledger);
    for (std::uint32_t k = 0; k < dmax; ++k) {
      const core::RunResult& step = oracle->decode_run(t, batch_size, pmax + k);
      total_s += step.latency_s;
      energy_j += step.energy_j;
      report.ledger.merge(step.ledger);
    }
    const auto [start, end] = launch_batch(t, batch, pre, total_s, energy_j);
    const double prefill_end = start + pre.latency_s * derate_mult;
    kv_update(t, footprint, true);
    for (const Request& r : batch) {
      ts.ttfts.push_back(prefill_end - r.arrival_s);
      if (rec != nullptr && rec->metering()) {
        rec->metrics().observe("serve.ttft", prefill_end - r.arrival_s);
      }
    }
    if (rec != nullptr) {
      record_phase_spans(t, start, prefill_end, end);
    }
    schedule_batch_end(t, end, std::move(batch));
  }

  /// Completion bookkeeping shared by every execution path: latency
  /// samples, counters, the day-curve bucket, observability, and one
  /// closed-loop re-issue per response (issued before the caller
  /// schedules anything else, which fixes event-queue tie order).
  void retire_requests(std::size_t t, const std::vector<Request>& done,
                       double now) {
    TenantState& ts = tenants[t];
    for (const Request& r : done) {
      ts.latencies.push_back(now - r.arrival_s);
    }
    ts.report.completed += done.size();
    if (DayPoint* bucket = curve_bucket(now)) {
      bucket->completed += done.size();
    }
    if (rec != nullptr) {
      record_completions(t, done, now);
    }
    for (std::size_t i = 0; i < done.size(); ++i) {
      issue_closed(t);  // each response frees one closed-loop user
    }
    last_completion_s = std::max(last_completion_s, now);
  }

  /// A batch left the executor — a whole batch, or the last stage of a
  /// pipelined one. The tenant goes idle (gating may start) when its
  /// in-flight count reaches 0.
  void complete(std::size_t t, const std::vector<Request>& batch) {
    TenantState& ts = tenants[t];
    const double now = events.now();
    if (ts.var_length) {
      std::uint64_t footprint = 0;
      for (const Request& r : batch) {
        footprint += footprint_bytes(ts, r.shape);
        ts.decode_tokens_done += r.shape.decode_tokens;
      }
      kv_update(t, footprint, false);
    }
    retire_requests(t, batch, now);
    ts.inflight -= 1;
    if (config.elastic.gate && ts.inflight == 0) {
      ts.idle_since_s = now;  // closed (or re-measured) at the next dispatch
    }
    release_shared(t);
    try_dispatch(t);
  }

  // ------------------------------------------------------------------
  // Continuous (iteration-level) batching: the tenant advances one
  // iteration at a time — a prefill iteration lands newly admitted
  // prompts, a decode iteration generates one token for every running
  // sequence — and requests join/leave the set only at these token
  // boundaries. Admission reserves each request's final-context KV
  // footprint against the tenant's budget, so concurrent decode slots
  // are capped by the activation buffer, not just max_batch.

  /// Token-boundary scheduler: admit what fits, then run an iteration
  /// (unless one is already in flight or queued on the shared pool).
  void continuous_step(std::size_t t) {
    TenantState& ts = tenants[t];
    if (ts.iter_running || ts.waiting_shared) {
      return;
    }
    const double now = events.now();
    while (!ts.queue.empty() &&
           ts.active.size() < ts.queue.config().max_batch) {
      const Request& head = ts.queue.front();
      const std::uint64_t footprint = footprint_bytes(ts, head.shape);
      if (ts.kv_reserved_bytes + footprint > ts.kv_budget_bytes) {
        break;  // joins once completions release KV slots
      }
      const std::vector<Request> one = ts.queue.take(ts.arrivals_done);
      OPTIPLET_ASSERT(one.size() == 1,
                      "continuous admission takes one request at a time");
      kv_update(t, footprint, true);
      ts.active.push_back(ActiveSeq{one.front()});
      ts.fresh += 1;
      if (rec != nullptr && rec->tracing()) {
        rec->trace().add_complete("queue", "queue", one.front().arrival_s,
                                  now, pid, tenant_tracks[t],
                                  {obs::arg("request", one.front().id)});
      }
    }
    if (ts.active.empty()) {
      if (config.elastic.gate && ts.idle_since_s < 0.0) {
        ts.idle_since_s = now;  // busy period over: hardware may gate
      }
      return;  // busy period over; the next arrival restarts it
    }
    if (acquire_shared(t)) {
      continuous_iterate(t);
    }
  }

  /// Compose, price and schedule one iteration over the current set: a
  /// prefill iteration over the sequences not yet prefilled (the `fresh`
  /// tail; the prompts land in the bubble before decoding resumes), a
  /// decode iteration over the whole set otherwise. Iteration ends
  /// accumulate as origin + (accum += dt): the identical left-to-right
  /// fold begin_execution_tokens performs, so a lone request's completion
  /// matches the static kNone price bit-for-bit.
  void continuous_iterate(std::size_t t) {
    TenantState& ts = tenants[t];
    OPTIPLET_ASSERT(!ts.iter_running,
                    "continuous tenant started a second iteration");
    const bool prefill_phase = ts.fresh > 0;
    const auto size =
        static_cast<unsigned>(prefill_phase ? ts.fresh : ts.active.size());
    double start = elastic_wake(t, events.now());
    const core::RunResult* run = nullptr;
    double resipi_window_s = 0.0;
    if (prefill_phase) {
      std::uint32_t pmax = 1;
      const std::size_t n = ts.active.size();
      for (std::size_t i = n - size; i < n; ++i) {
        pmax = std::max(pmax, ts.active[i].request.shape.prefill_tokens);
      }
      run = &oracle->prefill_run(t, size, pmax);
      // The prefill retunes gateways exactly like a batch dispatch;
      // decode iterations reuse the configuration and never retune.
      resipi_window_s = reserve_batch_window(t, *run, start);
      count_dispatch(t, size, *run);
    } else {
      std::uint32_t kv_max = 0;
      for (const ActiveSeq& seq : ts.active) {
        kv_max = std::max(kv_max, seq.kv_tokens);
      }
      run = &oracle->decode_run(t, size, kv_max);
    }
    // Busy-period anchoring: contiguous iterations telescope through the
    // accumulator; any stall (idle gap, shared wait, ReSiPI wait)
    // re-anchors the origin at the actual start.
    if (start != ts.origin_s + ts.accum_s) {
      ts.origin_s = start;
      ts.accum_s = 0.0;
      ts.report.energy_j += ts.energy_accum_j;
      ts.energy_accum_j = 0.0;
    }
    ts.accum_s += run->latency_s * derate_mult;
    const double end = ts.origin_s + ts.accum_s;
    ts.est_free_s = end;
    if (ts.needs_shared) {
      // Only the current iteration is committed shared occupancy —
      // admission control must not charge other tenants for this
      // tenant's whole open-ended decode horizon.
      note_shared_busy_until(ts.report.priority, end);
    }
    charge_busy(t, start, end);
    charge_energy(ts.energy_accum_j, start, run->energy_j);
    report.ledger.merge(run->ledger);
    if (rec != nullptr && rec->tracing()) {
      rec->trace().add_complete(
          prefill_phase ? "prefill" : "decode", "phase", start, end, pid,
          exec_tracks[t],
          {obs::arg("tenant", ts.report.name),
           obs::arg("size", static_cast<std::uint64_t>(size))});
    }
    record_batch(t, size, start, end, resipi_window_s, ts.occupancy);
    ts.iter_running = true;
    events.schedule_at(end, make_event(EventKind::kIterationEnd, t));
  }

  /// Token boundary: land the iteration's tokens on the sequences it
  /// touched (the fresh tail after a prefill, every sequence after a
  /// decode step), retire the finished ones in set order, release/grant
  /// the shared pool, and schedule the next iteration (whose admissions
  /// become the new fresh tail).
  void end_cont_iteration(std::size_t t) {
    TenantState& ts = tenants[t];
    const double now = events.now();
    ts.iter_running = false;
    std::vector<ActiveSeq>& active = ts.active;
    // A prefill touched only the fresh tail, a decode step every sequence.
    const bool prefilled = ts.fresh > 0;
    const std::size_t first = prefilled ? active.size() - ts.fresh : 0;
    ts.fresh = 0;
    if (!prefilled) {
      ts.decode_tokens_done += active.size();
    }
    std::vector<Request> done;
    std::uint64_t released = 0;
    std::size_t kept = first;
    for (std::size_t i = first; i < active.size(); ++i) {
      ActiveSeq& seq = active[i];
      const Request& request = seq.request;
      if (prefilled) {
        seq.kv_tokens = request.shape.prefill_tokens;
        ts.ttfts.push_back(now - request.arrival_s);
        if (rec != nullptr && rec->metering()) {
          rec->metrics().observe("serve.ttft", now - request.arrival_s);
        }
      } else {
        seq.kv_tokens += 1;
      }
      if (seq.kv_tokens == request.shape.total_tokens()) {
        done.push_back(request);
        released += footprint_bytes(ts, request.shape);
      } else {
        // Order-preserving compaction. Skip the self-copy: it compiles
        // to a memmove call per sequence.
        if (kept != i) {
          active[kept] = seq;
        }
        ++kept;
      }
    }
    active.resize(kept);
    if (!done.empty()) {
      kv_update(t, released, false);
      retire_requests(t, done, now);
    }
    release_shared(t);
    continuous_step(t);
  }

  // ------------------------------------------------------------------
  // Layer-granular (SET-style pipelined) execution.

  /// Resolve and cache the stage chain of one (tenant, batch-size) point:
  /// the oracle's per-group pipeline stages mapped onto engine resources,
  /// with consecutive same-resource stages merged so a batch never
  /// re-acquires the lock it just released.
  const std::vector<ExecStage>& exec_stages(std::size_t t, unsigned batch) {
    TenantState& ts = tenants[t];
    if (const auto it = ts.stage_cache.find(batch);
        it != ts.stage_cache.end()) {
      return it->second;
    }
    const LayerSchedule& schedule = oracle->layer_schedule(t, batch);
    const auto& shared_kinds = plan->tenants[t].shared_kinds;
    std::vector<ExecStage> stages;
    for (const PipelineStage& ps : schedule.stages) {
      const bool shared =
          std::find(shared_kinds.begin(), shared_kinds.end(), ps.group) !=
          shared_kinds.end();
      std::size_t resource = 0;
      if (!shared) {
        const auto it = std::find_if(
            ts.kind_resource.begin(), ts.kind_resource.end(),
            [&ps](const auto& kr) { return kr.first == ps.group; });
        OPTIPLET_ASSERT(it != ts.kind_resource.end(),
                        "pipeline stage on a group the tenant neither owns "
                        "nor shares");
        resource = it->second;
      }
      if (!stages.empty() && stages.back().resource == resource) {
        // Adjacent oracle stages always differ in group, so this merge
        // only fires for shared kinds collapsing onto the shared pool.
        ExecStage& merged = stages.back();
        merged.end_offset_s = ps.end_offset_s;
        merged.layer_count += ps.layer_count;
      } else {
        ExecStage stage;
        stage.resource = resource;
        stage.start_offset_s = ps.start_offset_s;
        stage.end_offset_s = ps.end_offset_s;
        stage.first_layer = ps.first_layer;
        stage.layer_count = ps.layer_count;
        stages.push_back(stage);
      }
    }
    return ts.stage_cache.emplace(batch, std::move(stages)).first->second;
  }

  /// Distinct resources across a stage chain: the tenant's useful
  /// pipeline depth (how many batches can make progress at once).
  static std::size_t distinct_resources(const std::vector<ExecStage>& s) {
    std::vector<std::size_t> seen;
    for (const ExecStage& stage : s) {
      if (std::find(seen.begin(), seen.end(), stage.resource) ==
          seen.end()) {
        seen.push_back(stage.resource);
      }
    }
    return std::max<std::size_t>(seen.size(), 1);
  }

  void request_stage(Slot slot) {
    const InFlightBatch& b = batches[slot];
    Resource& r = resources[b.current().resource];
    if (r.busy) {
      r.waiters.emplace_back(b.tenant, slot, events.now());
      return;
    }
    r.busy = true;
    start_stage(slot);
  }

  /// Run one granted stage: stage 0 wakes gated hardware and dispatches
  /// the batch; ReSiPI serializes the batch window (stage 0) and a retune
  /// on every cross-tenant shared handoff; busy time is charged and the
  /// stage-end event scheduled. Nothing here allocates a slot, so `b`
  /// stays valid throughout.
  void start_stage(Slot slot) {
    InFlightBatch& b = batches[slot];
    const std::size_t t = b.tenant;
    TenantState& ts = tenants[t];
    const ExecStage& s = b.current();
    Resource& r = resources[s.resource];
    const auto batch_size = static_cast<unsigned>(b.requests.size());
    const bool siph = config.arch == accel::Architecture::kSiph2p5D;

    double start = events.now();
    double resipi_window_s = 0.0;
    if (b.stage == 0) {
      start = elastic_wake(t, start);
      const core::RunResult& run = oracle->batch_run(t, batch_size);
      // The batch's own reconfiguration window, as in batch-granular mode.
      resipi_window_s = reserve_batch_window(t, run, start);
      count_dispatch(t, batch_size, run);
      charge_energy(ts.report.energy_j, start, run.energy_j);
      report.ledger.merge(run.ledger);
      // Admission estimate: with the pipeline full, completions are one
      // bottleneck-amortized interval apart.
      ts.est_free_s =
          std::max(ts.est_free_s, start) +
          run.latency_s / static_cast<double>(
                              std::max<std::size_t>(ts.pipeline_depth, 1));
    }
    double handoff_s = 0.0;
    if (r.shared && siph && r.last_tenant != kNoTenant &&
        r.last_tenant != t) {
      // Cross-tenant handoff of the scarce group: retune its gateways for
      // the new tenant — one PCM write window, serialized on the shared
      // interposer like any other reconfiguration.
      handoff_s = config.system.tech.photonic.pcm.write_time_s;
      start = resipi_reserve(t, start, handoff_s);
      ts.report.shared_handoffs += 1;
      ts.report.handoff_resipi_s += handoff_s;
      if (rec != nullptr && rec->metering()) {
        rec->metrics().add("resipi.handoffs");
      }
      resipi_window_s = std::max(resipi_window_s, handoff_s);
    }
    if (r.shared) {
      r.last_tenant = t;
    }
    if (b.stage == 0) {
      b.batch_start_s = start;
    }
    // An unstalled chain telescopes through the schedule's exact prefix
    // offsets, so a lone batch completes bit-for-bit at the
    // batch-granular time; a stalled or handed-off stage falls back to
    // duration arithmetic from its actual start.
    const double expected = b.batch_start_s + s.start_offset_s;
    const double end =
        (handoff_s == 0.0 && start == expected)
            ? b.batch_start_s + s.end_offset_s
            : start + (s.end_offset_s - s.start_offset_s) + handoff_s;
    if (r.shared) {
      // Feed the admission estimate's cross-tenant contention term.
      note_shared_busy_until(ts.report.priority, end);
    }

    // Busy time is charged to the whole occupancy; the batch record audits
    // the stage's actual physical lock instead.
    charge_busy(t, start, end);
    if (rec != nullptr) {
      record_stage_trace(b, s, start, end);
    }
    const char* retune_kind = handoff_s > 0.0 ? "handoff" : "batch_window";
    record_batch(t, batch_size, start, end, resipi_window_s, r.chiplets, &b,
                 retune_kind);
    events.schedule_at(end, make_event(EventKind::kStageEnd, t, slot));
  }

  /// kStageEnd: free the stage's group, then queue the next stage or
  /// complete the batch.
  void end_stage(Slot slot) {
    // The release can grant a waiter that dispatches into a new slot and
    // grows the slab, so index the batch afresh after it.
    release_resource(batches[slot].current().resource);
    InFlightBatch& b = batches[slot];
    b.stage += 1;
    if (b.stage < b.stages->size()) {
      request_stage(slot);
    } else {
      const std::size_t t = b.tenant;
      complete(t, release_batch(slot));
    }
  }

  /// Free resource `id`, or hand it (still busy) to the first waiter with
  /// the smallest (priority class, is tenant-level) pair: best class
  /// first, FIFO within a class, and a pipeline stage ahead of
  /// tenant-level work of its class.
  void release_resource(std::size_t id) {
    Resource& r = resources[id];
    if (r.waiters.empty()) {
      r.busy = false;
      return;
    }
    const auto rank = [this](const Waiter& w) {
      return std::pair(tenants[w.tenant].report.priority,
                       w.stage == kNoSlot);
    };
    auto best = r.waiters.begin();
    for (auto it = std::next(best); it != r.waiters.end(); ++it) {
      if (rank(*it) < rank(*best)) {
        best = it;
      }
    }
    const Waiter next = *best;
    r.waiters.erase(best);
    if (r.shared) {
      tenants[next.tenant].report.shared_wait_s += events.now() - next.since_s;
    }
    if (next.stage != kNoSlot) {
      start_stage(next.stage);
    } else {
      grant_tenant(next.tenant);
    }
  }

  /// Run one popped event: the loop's single dispatch point.
  void dispatch(Event e) {
    const std::size_t t = e.tenant;
    switch (e.kind) {
      case EventKind::kArrival:
        open_arrival(t);
        return;
      case EventKind::kThinkEnd:
        end_think(t);
        return;
      case EventKind::kRetry: {
        // Copy out first: the re-offer may shed again into a new slot.
        const PendingRetry retry = retries[e.slot];
        retries.release(e.slot);
        offer(t, retry.request, retry.attempt + 1);
        return;
      }
      case EventKind::kDeadline:
        tenants[t].timer_armed = false;
        try_dispatch(t);
        return;
      case EventKind::kBatchEnd:
        complete(t, release_batch(e.slot));
        return;
      case EventKind::kIterationEnd:
        end_cont_iteration(t);
        return;
      case EventKind::kStageEnd:
        end_stage(e.slot);
        return;
      case EventKind::kMetricsTick:
        metrics_tick();
        return;
      case EventKind::kFault:
        apply_fault(config.elastic.faults[e.slot]);
        return;
    }
  }
};

/// Shared-everything plan for the monolithic die: every tenant serializes
/// on the whole chip (there is no chiplet pool to partition).
ColocationPlan monolithic_plan(const core::SystemConfig& system,
                               const std::vector<TenantDemand>& demands) {
  ColocationPlan plan;
  plan.tenants.resize(demands.size());
  const accel::PlatformSpec spec =
      accel::make_monolithic_spec(system.monolithic_scale_divisor);
  std::size_t id = 0;
  for (const auto& group : spec.groups) {
    const accel::ComputeChiplet model(group.chiplet, system.tech);
    for (std::size_t c = 0; c < group.chiplet_count; ++c) {
      plan.shared_chiplets.push_back(id++);
      plan.chiplet_active_power_w.push_back(model.active_power_w());
    }
  }
  for (std::size_t t = 0; t < demands.size(); ++t) {
    plan.tenants[t].shared_kinds = demands[t].needed_kinds;
    plan.tenants[t].platform = spec;
  }
  return plan;
}

/// True when the tenant's requests carry token geometry: mean lengths,
/// or replayed shapes with a prompt.
bool has_token_geometry(const TenantSetup& setup) {
  return setup.prefill_tokens > 0 ||
         std::any_of(setup.trace_shapes.begin(), setup.trace_shapes.end(),
                     [](const RequestShape& s) { return s.variable_length(); });
}

/// Tokens resident at completion of the tenant's longest request: the
/// trace maximum when shapes are replayed, the top of the uniform spread
/// when drawn.
std::uint64_t worst_case_tokens(const TenantSetup& setup) {
  std::uint64_t worst = 0;
  for (const RequestShape& s : setup.trace_shapes) {
    worst = std::max(worst, s.total_tokens());
  }
  if (!setup.trace_shapes.empty()) {
    return worst;
  }
  const auto worst_of = [&](std::uint32_t mean) {
    return static_cast<std::uint64_t>(
        std::ceil(mean * (1.0 + setup.token_spread)));
  };
  return worst_of(setup.prefill_tokens) + worst_of(setup.decode_tokens);
}

/// A token-geometry tenant's KV-cache sizing and the batch bound it runs
/// with: the one derivation check_serving_rules and simulate()'s set-up
/// share.
struct KvSizing {
  std::uint64_t bytes_per_token = 0;
  std::uint64_t budget_bytes = 0;
  /// What one worst-case request reserves.
  std::uint64_t request_bytes = 0;
  /// `batching.max_batch`, capped at the worst-case requests the budget
  /// holds at once: static batches clamp their size, continuous batching
  /// its slot count (and re-tests the fit per admitted request).
  unsigned max_batch = 0;
};

KvSizing kv_sizing(const TenantSetup& tenant,
                   const dnn::TransformerSpec& transformer,
                   unsigned parameter_bits) {
  KvSizing kv;
  kv.bytes_per_token = dnn::kv_bytes_per_token(transformer, parameter_bits);
  kv.budget_bytes =
      tenant.kv_cache_mb > 0.0
          ? static_cast<std::uint64_t>(tenant.kv_cache_mb * 1024.0 * 1024.0)
          : 0;
  kv.request_bytes = kv.bytes_per_token * worst_case_tokens(tenant);
  kv.max_batch = static_cast<unsigned>(std::min<std::uint64_t>(
      tenant.batching.max_batch,
      kv.budget_bytes / std::max<std::uint64_t>(kv.request_bytes, 1)));
  return kv;
}

/// The token-geometry rules of one tenant with token geometry (see
/// check_serving_rules); returns its KV sizing. `trace` names where
/// replayed token columns came from.
KvSizing check_token_rules(const TenantSetup& tenant, unsigned parameter_bits,
                           const std::string& trace) {
  const std::optional<dnn::TransformerSpec>& transformer =
      dnn::ModelRegistry::instance().at(tenant.model).transformer;
  if (!transformer) {
    throw std::invalid_argument(
        (tenant.prefill_tokens > 0
             ? "prefill_tokens " + std::to_string(tenant.prefill_tokens)
             : "the token columns of " + trace) +
        " on fixed-shape model " + tenant.model +
        " (token geometry needs a transformer)");
  }
  const std::uint64_t worst = worst_case_tokens(tenant);
  if (worst > transformer->max_context) {
    throw std::invalid_argument(
        (tenant.trace_shapes.empty()
             ? "prefill_tokens " + std::to_string(tenant.prefill_tokens) +
                   ", decode_tokens " + std::to_string(tenant.decode_tokens) +
                   " and token_spread " +
                   util::format_general(tenant.token_spread) + " make"
             : trace + " has") +
        " a request of " + std::to_string(worst) +
        " tokens, over the max_context " +
        std::to_string(transformer->max_context) + " of " + tenant.model);
  }
  // The KV budget must hold at least one worst-case request.
  const KvSizing kv = kv_sizing(tenant, *transformer, parameter_bits);
  if (kv.budget_bytes < std::max<std::uint64_t>(kv.request_bytes, 1)) {
    throw std::invalid_argument(
        "kv_cache_mb " + util::format_general(tenant.kv_cache_mb) +
        " cannot hold one worst-case request of " + std::to_string(worst) +
        " tokens on " + tenant.model + ", which needs " +
        util::format_general(static_cast<double>(kv.request_bytes) /
                             (1024.0 * 1024.0)) +
        " MiB");
  }
  return kv;
}

/// The serving rules a config must pass before it runs, each refused as a
/// std::invalid_argument naming the field and its value.
/// make_serving_config applies them where a spec enters; simulate()
/// applies them again to configs built by hand. `trace_path` names the
/// trace replayed token columns came from (empty when unknown).
void check_serving_rules(const ServingConfig& config,
                         const std::string& trace_path) {
  const ElasticSpec& elastic = config.elastic;
  if (!in_range(elastic)) {
    throw std::invalid_argument(
        "elastic policy " + to_string(elastic) +
        " is out of range: durations and fault times must be >= 0, tau and "
        "the carbon period > 0, the carbon amplitude in [0, 1], a fault "
        "derate in (0, 1] and chiplet and package ids >= -1");
  }
  // A chiplet fault needs a chiplet of the 2.5D pool to kill.
  std::size_t pool = 0;
  if (config.arch != accel::Architecture::kMonolithicCrossLight) {
    for (const accel::ChipletGroup& group : config.system.compute_2p5d.groups) {
      pool += group.chiplet_count;
    }
  }
  // Re-partitioning and faults need batch-granular dispatch: the
  // layer-granular resource table and stage chains are built once and
  // cannot follow a mid-run ownership change. `pool_change` names the
  // first policy field that asks for one.
  std::string pool_change;
  if (elastic.repartitioning()) {
    pool_change = "shift=" + util::format_general(elastic.shift_threshold);
  }
  for (const FaultSpec& fault : elastic.faults) {
    if (!fault.armed()) {
      continue;
    }
    if (fault.chiplet >= static_cast<int>(pool)) {
      throw std::invalid_argument(
          to_string(fault) + " names chiplet " +
          std::to_string(fault.chiplet) + " outside the 2.5D pool of " +
          std::to_string(pool) + " chiplets");
    }
    if (pool_change.empty()) {
      pool_change = to_string(fault);
    }
  }
  if (!pool_change.empty() &&
      config.pipeline == PipelineMode::kLayerGranular) {
    throw std::invalid_argument(
        pool_change +
        " needs pipeline batch, not layer: layer-granular stage chains "
        "cannot follow a mid-run re-partition or fault");
  }
  if (elastic.repartitioning() &&
      config.arch == accel::Architecture::kMonolithicCrossLight) {
    throw std::invalid_argument(
        pool_change + " re-partitions the 2.5D chiplet pool, which the "
                      "monolithic architecture does not have");
  }

  const std::string trace =
      trace_path.empty() ? "the replayed trace" : "trace " + trace_path;
  for (const TenantSetup& tenant : config.tenants) {
    if (!(tenant.token_spread >= 0.0 && tenant.token_spread < 1.0)) {
      throw std::invalid_argument(
          "token_spread " + util::format_general(tenant.token_spread) +
          " on " + tenant.model + " is outside [0, 1)");
    }
    unsigned max_batch = tenant.batching.max_batch;
    if (has_token_geometry(tenant)) {
      max_batch =
          check_token_rules(tenant, config.system.parameter_bits, trace)
              .max_batch;
    } else if (tenant.decode_tokens > 0) {
      throw std::invalid_argument(
          "decode_tokens " + std::to_string(tenant.decode_tokens) +
          " without prefill_tokens on " + tenant.model +
          " (decode needs a prompt)");
    } else if (tenant.batching.policy == BatchPolicy::kContinuous) {
      throw std::invalid_argument(
          "policy cont on fixed-shape model " + tenant.model +
          " (continuous batching needs prefill_tokens > 0)");
    }
    // Once every user of a closed loop waits on a queued request, a size
    // batch larger than the user pool never fills and the run stalls.
    if (tenant.source == ArrivalSource::kClosedLoop &&
        tenant.batching.policy == BatchPolicy::kFixedSize &&
        tenant.users < max_batch && tenant.requests > tenant.users) {
      throw std::invalid_argument(
          "closed loop of " + std::to_string(tenant.users) + " users on " +
          tenant.model + " can never fill its size batch of " +
          std::to_string(max_batch) + " (" + std::to_string(tenant.requests) +
          " requests): use at least " + std::to_string(max_batch) +
          " users, or another policy");
    }
  }
}

void finalize_tenant(TenantState& ts, double makespan_s) {
  TenantReport& r = ts.report;
  r.energy_j += ts.energy_accum_j;  // the still-open busy period's fold
  ts.energy_accum_j = 0.0;
  if (makespan_s > 0.0) {
    // Layer-granular overlap sums concurrent stage intervals into busy_s,
    // so the executor's busy fraction saturates at 1 (mirrors the
    // per-chiplet clamp in the pool metric).
    r.utilization = std::min(r.busy_s, makespan_s) / makespan_s;
  }
  LatencyPool pool;
  pool.add(r, ts.latencies);
  pool.summarize(r, makespan_s);
  if (ts.var_length) {
    r.ttft_p99_s = exact_quantile(ts.ttfts, 0.99);
    if (makespan_s > 0.0) {
      r.decode_tps =
          static_cast<double>(ts.decode_tokens_done) / makespan_s;
    }
    r.kv_peak_bytes = ts.kv_peak_bytes;
  }
}

}  // namespace

ColocatedSetup make_colocated_setup(
    const core::SystemConfig& system, accel::Architecture arch,
    const std::vector<std::string>& model_names) {
  ColocatedSetup setup;
  setup.models.reserve(model_names.size());
  for (std::size_t t = 0; t < model_names.size(); ++t) {
    setup.models.push_back(dnn::zoo::by_name(model_names[t]));
    TenantDemand demand;
    demand.needed_kinds = needed_kinds(
        dnn::compute_workload(setup.models.back(), system.parameter_bits));
    setup.demands.push_back(std::move(demand));
  }

  const bool monolithic = arch == accel::Architecture::kMonolithicCrossLight;
  setup.plan = monolithic ? monolithic_plan(system, setup.demands)
                          : partition_pool(system.compute_2p5d, setup.demands,
                                           system.tech);

  // Service-time oracle: each tenant simulates on its own partition.
  setup.oracle_tenants.reserve(model_names.size());
  for (std::size_t t = 0; t < model_names.size(); ++t) {
    // Transformer models carry their spec so the oracle can price
    // variable-length phases (prefill/decode graphs per token count).
    ServiceTimeOracle::Tenant ot{
        setup.models[t], system,
        dnn::ModelRegistry::instance().at(model_names[t]).transformer};
    if (!monolithic) {
      ot.config.compute_2p5d = setup.plan.tenants[t].platform;
    }
    setup.oracle_tenants.push_back(std::move(ot));
  }
  return setup;
}

ServingReport simulate(const ServingConfig& config) {
  OPTIPLET_REQUIRE(!config.tenants.empty(), "serving needs >= 1 tenant");
  OPTIPLET_REQUIRE(
      config.tenants.size() <= std::numeric_limits<std::uint16_t>::max(),
      "serving supports at most 65535 tenants");
  const auto wall_t0 = std::chrono::steady_clock::now();

  check_serving_rules(config, "");
  const ElasticSpec& elastic = config.elastic;
  bool pool_elastic = elastic.repartitioning();
  for (const FaultSpec& fault : elastic.faults) {
    pool_elastic = pool_elastic || (fault.armed() && fault.chiplet >= 0);
  }

  std::vector<std::string> model_names;
  for (const auto& setup : config.tenants) {
    model_names.push_back(setup.model);
  }
  ColocatedSetup setup =
      make_colocated_setup(config.system, config.arch, model_names);
  const ColocationPlan& plan = setup.plan;
  ServiceTimeOracle oracle(std::move(setup.oracle_tenants), config.arch);

  Engine engine(config, oracle, plan);
  engine.report.chiplet_busy_s.assign(plan.chiplet_active_power_w.size(),
                                      0.0);
  engine.chiplet_dead.assign(plan.chiplet_active_power_w.size(), 0);
  engine.dead_since.assign(plan.chiplet_active_power_w.size(), 0.0);
  engine.chiplet_gated_s.assign(plan.chiplet_active_power_w.size(), 0.0);
  // Every tenant starts at weight 1: an even share of the pool.
  engine.cur_weights.assign(model_names.size(), 1.0);
  engine.alloc_share.assign(model_names.size(),
                            1.0 / static_cast<double>(model_names.size()));
  if (pool_elastic) {
    // Keep the demand skeleton so re-partitions only swap the weights.
    engine.base_demands = std::move(setup.demands);
    engine.base_models = std::move(setup.models);
  }
  engine.tenants.reserve(config.tenants.size());
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const TenantSetup& setup = config.tenants[t];
    const std::optional<dnn::TransformerSpec>& tspec = oracle.transformer(t);
    const bool var = has_token_geometry(setup);
    BatchingConfig batching = setup.batching;
    std::uint32_t prefill_mean = setup.prefill_tokens;
    std::uint32_t decode_mean = setup.decode_tokens;
    KvSizing kv;
    if (var) {
      OPTIPLET_REQUIRE(
          setup.trace_shapes.empty() ||
              setup.trace_shapes.size() == setup.trace_arrivals.size(),
          "trace_shapes must align one-to-one with trace_arrivals");
      if (!setup.trace_shapes.empty() && prefill_mean == 0) {
        std::uint64_t prefill_sum = 0;
        std::uint64_t decode_sum = 0;
        for (const RequestShape& s : setup.trace_shapes) {
          prefill_sum += s.prefill_tokens;
          decode_sum += s.decode_tokens;
        }
        const auto n_shapes = static_cast<double>(setup.trace_shapes.size());
        prefill_mean = static_cast<std::uint32_t>(std::max<long>(
            1, std::lround(static_cast<double>(prefill_sum) / n_shapes)));
        decode_mean = static_cast<std::uint32_t>(
            std::lround(static_cast<double>(decode_sum) / n_shapes));
      }
      // The worst case sizes the KV reservation that caps concurrent
      // decode slots (check_serving_rules guarantees at least one).
      kv = kv_sizing(setup, *tspec, config.system.parameter_bits);
      batching.max_batch = kv.max_batch;
    }
    TenantState state(batching);
    if (setup.source == ArrivalSource::kClosedLoop) {
      OPTIPLET_REQUIRE(!setup.replay_trace,
                       "closed-loop arrivals cannot replay a trace");
      OPTIPLET_REQUIRE(setup.users >= 1, "closed loop needs >= 1 user");
      OPTIPLET_REQUIRE(setup.think_s >= 0.0, "negative think time");
      state.think_rng = util::Xoshiro256(setup.seed);
      state.arrivals_done = setup.requests == 0;
    } else {
      state.arrivals =
          setup.replay_trace
              ? setup.trace_arrivals
              : poisson_arrivals(setup.arrival_rps, setup.requests,
                                 setup.seed);
      state.arrivals_done = state.arrivals.empty();
    }
    state.needs_shared = !plan.tenants[t].shared_kinds.empty();
    state.occupancy = plan.occupancy(t);
    state.owned = plan.tenants[t].owned_chiplets;
    state.retry_rng = util::Xoshiro256(setup.seed ^ 0x7265747279ULL);
    state.report.name = setup.name.empty() ? setup.model : setup.name;
    state.report.model = setup.model;
    state.report.priority = setup.priority;
    if (var) {
      state.var_length = true;
      state.prefill_mean = prefill_mean;
      state.decode_mean = decode_mean;
      state.shape_rng = util::Xoshiro256(setup.seed ^ 0x746f6b656eULL);
      state.kv_bytes_per_token = kv.bytes_per_token;
      state.kv_budget_bytes = kv.budget_bytes;
      // The mean-shape single-request price pins the effective SLA (and
      // pre-warms the phase cache with the reference service times).
      const double nominal_s =
          mean_shape_batch_s(oracle, t, 1, prefill_mean, decode_mean);
      state.report.sla_s =
          setup.sla_s > 0.0 ? setup.sla_s : 10.0 * nominal_s;
    } else {
      // The batch-1 run pins the effective SLA (and pre-warms the cache
      // with the reference service time).
      state.report.sla_s = setup.sla_s > 0.0
                               ? setup.sla_s
                               : 10.0 * oracle.batch_run(t, 1).latency_s;
    }
    engine.tenants.push_back(std::move(state));
  }
  // The day curve indexes its buckets from t = 0, so a bucket too narrow
  // for the open-loop arrivals would outgrow the curve mid-run. Closed
  // loops learn their span only while running; curve_bucket() guards
  // them.
  const double bucket_s = elastic.curve_bucket_s;
  double last_arrival_s = 0.0;
  for (const TenantState& ts : engine.tenants) {
    if (!ts.arrivals.empty()) {
      last_arrival_s = std::max(last_arrival_s, ts.arrivals.back());
    }
  }
  if (bucket_s > 0.0 &&
      last_arrival_s / bucket_s >= static_cast<double>(kMaxCurveBuckets)) {
    refuse_curve_bucket(bucket_s, "the arrivals from 0 to ", last_arrival_s);
  }
  // The exclusive chiplet-group resource table: the shared-serial pool
  // first, then (layer-granular mode) every tenant's owned groups.
  Resource shared;
  shared.shared = true;
  shared.chiplets = plan.shared_chiplets;
  engine.resources.push_back(std::move(shared));
  if (config.pipeline == PipelineMode::kLayerGranular) {
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
      TenantState& ts = engine.tenants[t];
      for (const auto& [kind, ids] : plan.tenants[t].owned_by_kind) {
        const auto it = std::find_if(
            ts.kind_resource.begin(), ts.kind_resource.end(),
            [kind = kind](const auto& kr) { return kr.first == kind; });
        if (it != ts.kind_resource.end()) {
          // A pool with two groups of one kind folds into one resource.
          auto& chiplets = engine.resources[it->second].chiplets;
          chiplets.insert(chiplets.end(), ids.begin(), ids.end());
          continue;
        }
        Resource owned;
        owned.chiplets = ids;
        ts.kind_resource.emplace_back(kind, engine.resources.size());
        engine.resources.push_back(std::move(owned));
      }
      // The stage structure is batch-size independent, so batch 1 (already
      // simulated for the SLA) pins the tenant's pipeline depth.
      // Variable-length tenants are dense-affine throughout — their stage
      // chain collapses to one group — so they serve batch-granular with
      // depth 1 (no stage schedule to build).
      ts.pipeline_depth =
          ts.var_length
              ? 1
              : Engine::distinct_resources(engine.exec_stages(t, 1));
    }
  }
  obs::Recorder* const rec = config.recorder;
  if (rec != nullptr) {
    engine.rec = rec;
    engine.pid = rec->pid();
    if (rec->tracing()) {
      obs::TraceBuffer& tb = rec->trace();
      tb.set_process_name(engine.pid,
                          rec->options().process_name.empty()
                              ? "serving"
                              : rec->options().process_name);
      // Track allocation order is fixed (tenants, then executors/groups,
      // then the interposer), so identical configs always produce
      // identical tids.
      for (const TenantState& ts : engine.tenants) {
        engine.tenant_tracks.push_back(
            tb.track(engine.pid, "tenant:" + ts.report.name));
      }
      if (config.pipeline == PipelineMode::kLayerGranular) {
        for (std::size_t r = 0; r < engine.resources.size(); ++r) {
          engine.resource_tracks.push_back(
              tb.track(engine.pid, r == 0 ? std::string("group:shared")
                                          : "group:" + std::to_string(r)));
        }
        // Variable-length tenants serve batch-granular even in layer mode
        // and emit phase spans on executor tracks.
        const bool any_var = std::any_of(
            engine.tenants.begin(), engine.tenants.end(),
            [](const TenantState& ts) { return ts.var_length; });
        if (any_var) {
          for (const TenantState& ts : engine.tenants) {
            engine.exec_tracks.push_back(
                tb.track(engine.pid, "exec:" + ts.report.name));
          }
        }
      } else {
        for (const TenantState& ts : engine.tenants) {
          engine.exec_tracks.push_back(
              tb.track(engine.pid, "exec:" + ts.report.name));
        }
      }
      engine.resipi_track = tb.track(engine.pid, "resipi");
    }
  }
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const TenantSetup& setup = config.tenants[t];
    if (setup.source == ArrivalSource::kClosedLoop) {
      // Every user starts in a think phase, so the pool desynchronizes
      // naturally; issue_closed() stops at the tenant's budget.
      for (unsigned u = 0; u < setup.users; ++u) {
        engine.issue_closed(t);
      }
    } else if (!engine.tenants[t].arrivals.empty()) {
      engine.schedule_arrival(t);
    }
  }
  if (rec != nullptr && rec->metering()) {
    // Snapshot cadence: the option, or ~64 snapshots across the known
    // arrival span (closed-loop runs have no precomputed span — fall back
    // to the largest SLA, a natural timescale for queue dynamics).
    double first = std::numeric_limits<double>::infinity();
    double last = 0.0;
    double max_sla_s = 0.0;
    for (const TenantState& ts : engine.tenants) {
      if (!ts.arrivals.empty()) {
        first = std::min(first, ts.arrivals.front());
        last = std::max(last, ts.arrivals.back());
      }
      max_sla_s = std::max(max_sla_s, ts.report.sla_s);
    }
    double period_s = rec->options().snapshot_period_s;
    if (period_s <= 0.0) {
      const double span_s =
          std::isfinite(first) && last > first ? last - first : 0.0;
      period_s =
          span_s > 0.0 ? span_s / 64.0 : std::max(max_sla_s, 1e-6);
    }
    const double start_s = std::isfinite(first) ? first : 0.0;
    engine.tick_period_s = period_s;
    engine.events.schedule_at(start_s + period_s,
                              make_event(EventKind::kMetricsTick, 0));
  }

  const std::vector<FaultSpec>& faults = config.elastic.faults;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const FaultSpec& fault = faults[f];
    if (!fault.armed()) {
      continue;  // t = inf (or a no-op spec) schedules nothing: inert.
    }
    engine.events.schedule_at(
        fault.time_s,
        make_event(EventKind::kFault, 0, static_cast<Slot>(f)));
  }

  Event event;
  while (engine.events.pop(event)) {
    engine.dispatch(event);
  }
  if (config.elastic.gate) {
    // Close every open idle gap at the measured-window end so tail idle
    // past the gate threshold is gated like any interior gap.
    for (std::size_t t = 0; t < engine.tenants.size(); ++t) {
      engine.close_gate_gap(t, engine.last_completion_s);
    }
  }
  for (const Resource& resource : engine.resources) {
    OPTIPLET_ASSERT(!resource.busy && resource.waiters.empty(),
                    "serving drained with a chiplet group still held");
  }
  OPTIPLET_ASSERT(engine.batches.drained() && engine.retries.drained(),
                  "serving drained with a batch or retry slot still taken");
  for (const TenantState& ts : engine.tenants) {
    OPTIPLET_ASSERT(ts.inflight == 0,
                    "serving drained with batches still in flight");
    OPTIPLET_ASSERT(ts.active.empty() && !ts.iter_running &&
                        !ts.waiting_shared,
                    "serving drained with sequences still decoding");
  }

  // --- assemble the report ---
  // The measured window runs from the first arrival to the last
  // completion: replayed traces may start at an arbitrary absolute time,
  // which must not count as idle serving time. Closed-loop arrivals have
  // no precomputed arrival vector, so the engine tracks the first actual
  // arrival event for every source.
  const double first_arrival = std::isfinite(engine.first_arrival_s)
                                   ? engine.first_arrival_s
                                   : engine.last_completion_s;
  ServingReport out = std::move(engine.report);
  const double makespan =
      std::max(engine.last_completion_s - first_arrival, 0.0);
  ServingMetrics& m = out.metrics;
  m.makespan_s = makespan;
  m.first_arrival_abs_s = first_arrival;
  m.last_completion_abs_s = engine.last_completion_s;
  m.sim_events = engine.events.processed();
  m.sim_event_queue_peak = engine.events.peak_size();

  std::vector<double> all_ttfts;
  std::uint64_t batches = 0;
  LatencyPool pool;
  for (std::size_t t = 0; t < engine.tenants.size(); ++t) {
    TenantState& ts = engine.tenants[t];
    finalize_tenant(ts, makespan);
    add_counters(m, ts.report);
    all_ttfts.insert(all_ttfts.end(), ts.ttfts.begin(), ts.ttfts.end());
    batches += ts.report.batches;
    pool.add(ts.report, ts.latencies);
    out.tenants.push_back(ts.report);
    out.tenant_latencies.push_back(std::move(ts.latencies));
  }
  // Every offered request is completed, shed outright, or abandoned after
  // its capped retry budget — the drain identity the property tests pin.
  OPTIPLET_ASSERT(
      m.offered == m.completed + m.shed + m.abandoned,
      "serving lost requests: offered != completed + shed + abandoned");
  out.classes = pool.classes(makespan);
  if (!all_ttfts.empty()) {
    m.ttft_p99_s = exact_quantile(std::move(all_ttfts), 0.99);
  }
  if (makespan > 0.0) {
    // Idle static burn of the whole pool between batches.
    double busy_fraction_sum = 0.0;
    for (std::size_t c = 0; c < out.chiplet_busy_s.size(); ++c) {
      const double busy = std::min(out.chiplet_busy_s[c], makespan);
      busy_fraction_sum += busy / makespan;
      // Dark time draws no idle burn: seconds the chiplet's lasers were
      // power-gated, plus everything after a dead chiplet's fault time.
      // `dark_s - 0.0` stays IEEE-exact when the elastic policy is inert.
      double dark_s = engine.chiplet_gated_s[c];
      if (engine.chiplet_dead[c] != 0) {
        dark_s += std::max(engine.last_completion_s -
                               std::max(engine.dead_since[c], first_arrival),
                           0.0);
      }
      dark_s = std::min(dark_s, makespan - busy);
      out.ledger.charge_power_for(power::Category::kServingIdle,
                                  plan.chiplet_active_power_w[c] *
                                      config.system.idle_power_fraction,
                                  makespan - busy - dark_s);
    }
    if (!out.chiplet_busy_s.empty()) {
      m.utilization =
          busy_fraction_sum / static_cast<double>(out.chiplet_busy_s.size());
    }
  }
  // A category never charged reads 0 J, which the day curve below relies on.
  const double idle_j =
      out.ledger.entry(power::Category::kServingIdle).dynamic_energy_j;
  if (out.ledger.charged(power::Category::kServingIdle)) {
    m.energy_j += idle_j;
  }
  pool.summarize(m, batches, makespan);
  // Carbon proxy: total energy priced at the grid intensity [g CO2/kWh],
  // optionally sinusoidal over the diurnal period (J -> kWh is / 3.6e6).
  const auto intensity_gpkwh = [&config](double t) {
    const ElasticSpec& e = config.elastic;
    if (e.carbon_amplitude <= 0.0) {
      return e.carbon_base_gpkwh;
    }
    constexpr double kTau = 6.283185307179586;  // 2*pi
    return e.carbon_base_gpkwh *
           (1.0 + e.carbon_amplitude * std::sin(kTau * t / e.carbon_period_s));
  };
  if (!out.day_curve.empty()) {
    // Batch energy landed in its dispatch bucket; the pool's idle burn is
    // apportioned by each bucket's overlap with the measured window. Each
    // bucket then prices at its midpoint intensity, so the curve exposes
    // when the energy was drawn, not just how much.
    const double window_s = engine.last_completion_s - first_arrival;
    for (DayPoint& p : out.day_curve) {
      const double lo = std::max(p.t0_s, first_arrival);
      const double hi =
          std::min(p.t0_s + p.dt_s, engine.last_completion_s);
      if (window_s > 0.0 && hi > lo) {
        p.energy_j += idle_j * (hi - lo) / window_s;
      }
      if (p.completed > 0) {
        p.energy_per_request_j =
            p.energy_j / static_cast<double>(p.completed);
      }
      p.carbon_g =
          p.energy_j / 3.6e6 * intensity_gpkwh(p.t0_s + 0.5 * p.dt_s);
      m.carbon_g += p.carbon_g;
    }
  } else {
    // No curve: price the whole run flat at the base intensity.
    m.carbon_g = m.energy_j / 3.6e6 * config.elastic.carbon_base_gpkwh;
  }
  m.service_cache_hits = oracle.cache_hits();
  m.service_cache_misses = oracle.cache_misses();
  for (const auto& gen : engine.gen_oracles) {
    m.service_cache_hits += gen->cache_hits();
    m.service_cache_misses += gen->cache_misses();
  }
  if (rec != nullptr) {
    if (rec->metering()) {
      // Final snapshot closing the run (the queue is drained by now).
      rec->metrics().set("serve.queue_depth", 0.0);
      rec->metrics().set("serve.inflight_batches", 0.0);
      rec->metrics().snapshot(
          std::max(engine.last_completion_s, engine.events.now()));
    }
    if (rec->tracing()) {
      // One summary event per process: tools/check_trace_json.py
      // reconciles span counts against these totals (offered == request
      // spans == completed + shed).
      rec->trace().add_instant(
          "serving_totals", "summary", engine.last_completion_s, engine.pid,
          rec->trace().track(engine.pid, "summary"),
          {obs::arg("offered", m.offered), obs::arg("completed", m.completed),
           obs::arg("shed", m.shed), obs::arg("abandoned", m.abandoned)});
    }
  }
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall_t0)
                   .count();
  return out;
}

ServingConfig make_serving_config(const core::SystemConfig& base,
                                  accel::Architecture arch,
                                  const ServingSpec& spec) {
  ServingConfig config;
  config.system = base;
  config.arch = arch;
  config.pipeline = spec.pipeline;
  config.elastic = spec.elastic;

  const std::vector<std::string> mix = spec.tenants();
  OPTIPLET_REQUIRE(!mix.empty(), "empty tenant mix");
  const auto n = mix.size();
  const std::vector<unsigned> priorities = spec.priorities();

  OPTIPLET_REQUIRE(spec.source != ArrivalSource::kClosedLoop ||
                       spec.trace_path.empty(),
                   "closed-loop arrivals cannot replay a trace");
  std::vector<TraceEvent> trace;
  if (!spec.trace_path.empty()) {
    trace = load_arrival_trace(spec.trace_path);
  }

  for (std::size_t i = 0; i < n; ++i) {
    TenantSetup tenant;
    tenant.model = mix[i];
    // A model appearing more than once gets "#<mix-index>" appended to
    // *every* occurrence, so trace `tenant` labels can address each copy
    // unambiguously ("LeNet5#0", "LeNet5#1").
    tenant.name = mix[i];
    const auto copies =
        static_cast<std::size_t>(std::count(mix.begin(), mix.end(), mix[i]));
    if (copies > 1) {
      tenant.name.append("#").append(std::to_string(i));
    }
    tenant.arrival_rps = spec.arrival_rps / static_cast<double>(n);
    tenant.requests =
        spec.requests / n + (i < spec.requests % n ? 1 : 0);
    tenant.seed = spec.seed + i;
    tenant.source = spec.source;
    tenant.users = spec.users;
    tenant.think_s = spec.think_s;
    tenant.batching.policy = spec.policy;
    tenant.batching.max_batch = spec.max_batch;
    tenant.batching.max_wait_s = spec.max_wait_s;
    tenant.admission = spec.admission;
    tenant.priority = priorities[i];
    tenant.sla_s = spec.sla_s;
    tenant.prefill_tokens = spec.prefill_tokens;
    tenant.decode_tokens = spec.decode_tokens;
    tenant.token_spread = spec.token_spread;
    tenant.kv_cache_mb = spec.kv_cache_mb;
    if (!spec.trace_path.empty()) {
      tenant.replay_trace = true;
      tenant.trace_arrivals = trace_arrivals_for(trace, tenant.name);
      tenant.trace_shapes = trace_shapes_for(trace, tenant.name);
    }
    config.tenants.push_back(std::move(tenant));
  }
  check_serving_rules(config, spec.trace_path);
  if (!spec.trace_path.empty()) {
    // A trace that feeds nobody is a labeling mistake (e.g. rows labeled
    // "LeNet5" against the duplicate-mix names "LeNet5#0"/"LeNet5#1"):
    // fail loud instead of serving an empty run.
    std::size_t fed = 0;
    std::vector<std::string> names;
    for (const auto& tenant : config.tenants) {
      fed += tenant.trace_arrivals.empty() ? 0 : 1;
      names.push_back(tenant.name);
    }
    if (fed == 0) {
      std::string message =
          "arrival trace feeds no tenant (tenant labels must be empty or "
          "match one of:";
      for (const auto& name : names) {
        message += " " + name;
      }
      throw std::invalid_argument(message + "): " + spec.trace_path);
    }
  }
  return config;
}

}  // namespace optiplet::serve
