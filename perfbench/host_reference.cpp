#include "host_reference.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <unordered_map>
#include <vector>

namespace optiplet::perfbench {

namespace {

constexpr int kJobs = 7000;
constexpr int kStages = 8;

struct Job {
  std::uint64_t id = 0;
  double arrival_s = 0.0;
  int stage = 0;
  std::vector<double> stage_done_s;
};

struct Event {
  double at_s = 0.0;
  std::uint64_t seq = 0;
  std::function<void()> fire;

  bool operator>(const Event& other) const {
    return at_s > other.at_s || (at_s == other.at_s && seq > other.seq);
  }
};

/// Poisson jobs at 1,000/s through kStages FIFO servers in series, each
/// busy 8% of the time; returns completions plus the p99 latency in
/// nanoseconds.
std::uint64_t pipeline_pass() {
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::mt19937_64 rng(7);
  std::exponential_distribution<double> interarrival(1000.0);
  std::exponential_distribution<double> service(1500.0 * kStages);
  std::vector<double> free_at_s(kStages, 0.0);
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> live;
  std::vector<double> latency_s;
  std::uint64_t seq = 0;
  double now_s = 0.0;

  std::function<void(const std::shared_ptr<Job>&)> advance =
      [&](const std::shared_ptr<Job>& job) {
        if (job->stage == kStages) {
          latency_s.push_back(now_s - job->arrival_s);
          live.erase(job->id);
          return;
        }
        const int s = job->stage++;
        free_at_s[s] = std::max(now_s, free_at_s[s]) + service(rng);
        job->stage_done_s.push_back(free_at_s[s]);
        queue.push({free_at_s[s], seq++, [&advance, job] { advance(job); }});
      };
  double t_s = 0.0;
  for (int i = 0; i < kJobs; ++i) {
    t_s += interarrival(rng);
    auto job = std::make_shared<Job>();
    job->id = static_cast<std::uint64_t>(i);
    job->arrival_s = t_s;
    live.emplace(job->id, job);
    queue.push({t_s, seq++, [&advance, job] { advance(job); }});
  }
  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    now_s = event.at_s;
    event.fire();
  }
  std::sort(latency_s.begin(), latency_s.end());
  const double p99_s = latency_s[latency_s.size() * 99 / 100];
  return latency_s.size() + static_cast<std::uint64_t>(p99_s * 1.0e9);
}

}  // namespace

ReferencePass run_reference() {
  const auto t0 = std::chrono::steady_clock::now();
  ReferencePass pass;
  pass.checksum = pipeline_pass();
  pass.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return pass;
}

}  // namespace optiplet::perfbench
