#include "serve/batching.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace optiplet::serve {

BatchQueue::BatchQueue(const BatchingConfig& config) : config_(config) {
  OPTIPLET_REQUIRE(config.max_batch >= 1, "max_batch must be >= 1");
  OPTIPLET_REQUIRE(config.max_wait_s >= 0.0, "max_wait_s must be >= 0");
}

bool BatchQueue::ready(double now, bool arrivals_done) const {
  if (queue_.empty()) {
    return false;
  }
  if (arrivals_done) {
    return true;  // end-of-stream flush, every policy
  }
  switch (config_.policy) {
    case BatchPolicy::kNone:
    case BatchPolicy::kContinuous:
      // Continuous batching admits from the queue at token boundaries;
      // the queue itself is ready whenever it holds a request. Serving
      // refuses kContinuous on a fixed-shape tenant (check_serving_rules).
      return true;
    case BatchPolicy::kFixedSize:
      return queue_.size() >= config_.max_batch;
    case BatchPolicy::kDeadline:
      // Written as `now >= arrival + wait` — the exact expression
      // next_deadline() returns — so the dispatch timer's firing time
      // satisfies it bit-for-bit (a - b >= w can round short of w).
      return queue_.size() >= config_.max_batch ||
             now >= queue_.front().arrival_s + config_.max_wait_s;
  }
  return false;
}

std::optional<double> BatchQueue::next_deadline() const {
  if (config_.policy != BatchPolicy::kDeadline || queue_.empty()) {
    return std::nullopt;
  }
  return queue_.front().arrival_s + config_.max_wait_s;
}

std::size_t BatchQueue::batch_size(bool arrivals_done) const {
  const std::size_t cap = config_.policy == BatchPolicy::kNone ||
                                  config_.policy == BatchPolicy::kContinuous
                              ? 1
                              : config_.max_batch;
  if (arrivals_done) {
    return std::min(queue_.size(), cap);
  }
  switch (config_.policy) {
    case BatchPolicy::kNone:
    case BatchPolicy::kContinuous:
      return 1;
    case BatchPolicy::kFixedSize:
      return config_.max_batch;
    case BatchPolicy::kDeadline:
      return std::min(queue_.size(), cap);
  }
  return 1;
}

std::vector<Request> BatchQueue::take(bool arrivals_done) {
  const std::size_t n = batch_size(arrivals_done);
  OPTIPLET_REQUIRE(n >= 1 && n <= queue_.size(),
                   "take() called on a queue that is not ready");
  std::vector<Request> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(queue_.front());
    queue_.pop_front();
  }
  return batch;
}

}  // namespace optiplet::serve
