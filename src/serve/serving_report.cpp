#include "serve/serving_report.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace optiplet::serve {
namespace {

/// Nearest-rank index of quantile `q` in a sample of `n` > 0 values.
std::size_t quantile_index(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::min(n, std::max<std::size_t>(rank, 1)) - 1;
}

}  // namespace

double exact_quantile(std::vector<double> values, double q) {
  OPTIPLET_REQUIRE(q > 0.0 && q <= 1.0, "quantile must be in (0,1]");
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t index = quantile_index(values.size(), q);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

void LatencyPool::add(const TenantReport& tenant,
                      const std::vector<double>& samples) {
  Class& c = classes_[tenant.priority];
  c.report.priority = tenant.priority;
  c.report.offered += tenant.offered;
  c.report.completed += tenant.completed;
  c.report.shed += tenant.shed;
  c.report.abandoned += tenant.abandoned;
  c.samples.insert(c.samples.end(), samples.begin(), samples.end());
  for (const double l : samples) {
    sum_s_ += l;
    max_s_ = std::max(max_s_, l);
    const std::uint64_t violated = l > tenant.sla_s ? 1 : 0;
    violations_ += violated;
    c.violations += violated;
  }
  count_ += samples.size();
}

template <typename Report>
void LatencyPool::summarize_into(Report& r, std::uint64_t batches,
                                 double makespan_s) {
  if (count_ > 0) {
    r.mean_latency_s = sum_s_ / static_cast<double>(count_);
    r.max_latency_s = max_s_;
    // One working copy — a lone class's own samples need none. p50 selects
    // over the whole sample, then p95 and p99 each only above the rank
    // before them: ranges of about 1.55n elements in all, where selecting
    // p99 first and narrowing downwards spans 2.94n. A rank equal to the
    // one before it is already in place; selecting it would start the
    // range past its target (n = 2 has i50 = 0 and i95 = i99 = 1).
    std::vector<double> merged;
    if (classes_.size() > 1) {
      merged.reserve(count_);
      for (const auto& [priority, c] : classes_) {
        merged.insert(merged.end(), c.samples.begin(), c.samples.end());
      }
    }
    std::vector<double>& v =
        classes_.size() > 1 ? merged : classes_.begin()->second.samples;
    const std::size_t i99 = quantile_index(count_, 0.99);
    const std::size_t i95 = quantile_index(count_, 0.95);
    const std::size_t i50 = quantile_index(count_, 0.50);
    std::nth_element(v.begin(), v.begin() + i50, v.end());
    if (i95 > i50) {
      std::nth_element(v.begin() + i50 + 1, v.begin() + i95, v.end());
    }
    if (i99 > i95) {
      std::nth_element(v.begin() + i95 + 1, v.begin() + i99, v.end());
    }
    r.p50_s = v[i50];
    r.p95_s = v[i95];
    r.p99_s = v[i99];
    if (classes_.size() == 1) {
      Class& only = classes_.begin()->second;
      only.report.p99_s = r.p99_s;
      only.p99_selected = true;
    }
    r.sla_violation_rate =
        static_cast<double>(violations_) / static_cast<double>(count_);
  }
  if (makespan_s > 0.0) {
    r.throughput_rps = static_cast<double>(r.completed) / makespan_s;
    // Every completion records one latency, so completed - violations is
    // exactly the SLA-met count.
    r.goodput_rps =
        static_cast<double>(r.completed - violations_) / makespan_s;
  }
  if (r.completed > 0) {
    r.energy_per_request_j = r.energy_j / static_cast<double>(r.completed);
    r.mean_batch = static_cast<double>(r.completed) /
                   static_cast<double>(std::max<std::uint64_t>(batches, 1));
  }
}

void LatencyPool::summarize(TenantReport& r, double makespan_s) {
  summarize_into(r, r.batches, makespan_s);
}

void LatencyPool::summarize(ServingMetrics& m, std::uint64_t batches,
                            double makespan_s) {
  summarize_into(m, batches, makespan_s);
  const std::vector<ClassReport> pooled = classes(makespan_s);
  if (!pooled.empty()) {
    m.p99_hi_s = pooled.front().p99_s;
    m.p99_lo_s = pooled.back().p99_s;
  }
}

std::vector<ClassReport> LatencyPool::classes(double makespan_s) {
  std::vector<ClassReport> out;
  for (auto& [priority, c] : classes_) {
    if (!c.samples.empty()) {
      if (!c.p99_selected) {
        std::vector<double>& v = c.samples;
        const auto p99 = v.begin() + quantile_index(v.size(), 0.99);
        std::nth_element(v.begin(), p99, v.end());
        c.report.p99_s = *p99;
        c.p99_selected = true;
      }
      c.report.sla_violation_rate = static_cast<double>(c.violations) /
                                    static_cast<double>(c.samples.size());
    }
    if (makespan_s > 0.0) {
      c.report.goodput_rps =
          static_cast<double>(c.report.completed - c.violations) / makespan_s;
    }
    out.push_back(c.report);  // std::map iterates classes ascending
  }
  return out;
}

}  // namespace optiplet::serve
