#include "serve/batching.hpp"

#include <gtest/gtest.h>

namespace optiplet::serve {
namespace {

Request req(std::uint64_t id, double t) { return Request{id, t, {}}; }

TEST(BatchQueue, NoBatchDispatchesSingletonsFifo) {
  BatchQueue q(BatchingConfig{BatchPolicy::kNone, 8, 1e-3});
  EXPECT_FALSE(q.ready(0.0, false));
  q.push(req(0, 0.0));
  q.push(req(1, 0.1));
  EXPECT_TRUE(q.ready(0.1, false));
  const auto batch = q.take(false);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(BatchQueue, FixedSizeWaitsForExactlyK) {
  BatchQueue q(BatchingConfig{BatchPolicy::kFixedSize, 3, 0.0});
  q.push(req(0, 0.0));
  q.push(req(1, 0.0));
  EXPECT_FALSE(q.ready(100.0, false));  // time alone never triggers
  q.push(req(2, 0.0));
  EXPECT_TRUE(q.ready(0.0, false));
  EXPECT_EQ(q.take(false).size(), 3u);
}

TEST(BatchQueue, FixedSizeFlushesPartialBatchAtEndOfStream) {
  BatchQueue q(BatchingConfig{BatchPolicy::kFixedSize, 4, 0.0});
  q.push(req(0, 0.0));
  q.push(req(1, 0.0));
  EXPECT_FALSE(q.ready(0.0, false));
  EXPECT_TRUE(q.ready(0.0, true));
  EXPECT_EQ(q.take(true).size(), 2u);
}

TEST(BatchQueue, DeadlineDispatchesOnSizeOrTimeout) {
  BatchQueue q(BatchingConfig{BatchPolicy::kDeadline, 2, 1e-3});
  q.push(req(0, 0.0));
  EXPECT_FALSE(q.ready(0.5e-3, false));
  ASSERT_TRUE(q.next_deadline().has_value());
  EXPECT_DOUBLE_EQ(*q.next_deadline(), 1e-3);
  // Timeout path: the oldest request has waited long enough.
  EXPECT_TRUE(q.ready(1e-3, false));
  // Size path: a second arrival fills the batch before the deadline.
  q.push(req(1, 0.6e-3));
  EXPECT_TRUE(q.ready(0.7e-3, false));
  EXPECT_EQ(q.take(false).size(), 2u);
}

TEST(BatchQueue, DeadlineTimeoutTakesWhatIsQueuedUpToCap) {
  BatchQueue q(BatchingConfig{BatchPolicy::kDeadline, 8, 1e-3});
  q.push(req(0, 0.0));
  q.push(req(1, 0.2e-3));
  q.push(req(2, 0.4e-3));
  EXPECT_TRUE(q.ready(1e-3, false));
  EXPECT_EQ(q.take(false).size(), 3u);
}

TEST(BatchQueue, NoDeadlineTimerForOtherPolicies) {
  BatchQueue none(BatchingConfig{BatchPolicy::kNone, 8, 1e-3});
  none.push(req(0, 0.0));
  EXPECT_FALSE(none.next_deadline().has_value());
  BatchQueue fixed(BatchingConfig{BatchPolicy::kFixedSize, 8, 1e-3});
  fixed.push(req(0, 0.0));
  EXPECT_FALSE(fixed.next_deadline().has_value());
}

TEST(BatchQueue, RejectsDegenerateConfigs) {
  EXPECT_THROW(BatchQueue(BatchingConfig{BatchPolicy::kFixedSize, 0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(BatchQueue(BatchingConfig{BatchPolicy::kDeadline, 1, -1.0}),
               std::invalid_argument);
}

TEST(BatchPolicy, StringRoundTrip) {
  for (const BatchPolicy p : {BatchPolicy::kNone, BatchPolicy::kFixedSize,
                              BatchPolicy::kDeadline}) {
    const auto parsed = util::parse_name<BatchPolicy>(to_string(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(util::parse_name<BatchPolicy>("bogus").has_value());
}

}  // namespace
}  // namespace optiplet::serve
