#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace optiplet::sim {
namespace {

/// A test payload: which event this is.
struct Tag {
  int id = 0;
};

using Queue = EventQueue<Tag>;

/// Pop every event, returning the ids in pop order.
std::vector<int> drain(Queue& q) {
  std::vector<int> order;
  Tag tag;
  while (q.pop(tag)) {
    order.push_back(tag.id);
  }
  return order;
}

TEST(EventQueue, PopsEventsInTimeOrder) {
  Queue q;
  q.schedule_at(3.0, {3});
  q.schedule_at(1.0, {1});
  q.schedule_at(2.0, {2});
  EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesPopInInsertionOrder) {
  Queue q;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, {i});
  }
  EXPECT_EQ(drain(q), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, NowAdvancesWithPops) {
  Queue q;
  q.schedule_at(2.5, {0});
  q.schedule_at(4.0, {1});
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  Tag tag;
  ASSERT_TRUE(q.pop(tag));
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
  ASSERT_TRUE(q.pop(tag));
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, DispatchMayScheduleMoreEvents) {
  Queue q;
  q.schedule_at(1.0, {0});
  std::vector<int> order;
  Tag tag;
  while (q.pop(tag)) {
    order.push_back(tag.id);
    if (tag.id == 0) {
      q.schedule_in(1.0, {1});
      q.schedule_in(0.0, {2});  // same time as now: after this event
    }
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  Queue q;
  q.schedule_at(10.0, {0});
  Tag tag;
  ASSERT_TRUE(q.pop(tag));
  EXPECT_THROW(q.schedule_at(5.0, {1}), std::invalid_argument);
  EXPECT_THROW(q.schedule_in(-1.0, {1}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopReturnsFalseWhenEmpty) {
  Queue q;
  Tag tag{7};
  EXPECT_FALSE(q.pop(tag));
  EXPECT_EQ(tag.id, 7);  // left alone
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.processed(), 0u);
}

TEST(EventQueue, PopsLeaveTheRestQueued) {
  Queue q;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(static_cast<double>(i), {i});
  }
  Tag tag;
  for (int n = 0; n < 4; ++n) {
    ASSERT_TRUE(q.pop(tag));
  }
  EXPECT_EQ(tag.id, 3);
  EXPECT_EQ(q.size(), 6u);
}

TEST(EventQueue, CountsProcessedEvents) {
  Queue q;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(static_cast<double>(i), {i});
  }
  EXPECT_EQ(q.processed(), 0u);
  Tag tag;
  ASSERT_TRUE(q.pop(tag));
  EXPECT_EQ(q.processed(), 1u);
  drain(q);
  EXPECT_EQ(q.processed(), 5u);
}

TEST(EventQueue, TracksPeakSize) {
  Queue q;
  EXPECT_EQ(q.peak_size(), 0u);
  q.schedule_at(1.0, {1});
  q.schedule_at(2.0, {2});
  q.schedule_at(3.0, {3});
  EXPECT_EQ(q.peak_size(), 3u);
  drain(q);
  // The peak survives the drain; late scheduling below it does not move it.
  EXPECT_EQ(q.peak_size(), 3u);
  q.schedule_at(4.0, {4});
  EXPECT_EQ(q.peak_size(), 3u);
}

TEST(EventQueue, SelfPerpetuatingChainBounded) {
  Queue q;
  q.schedule_at(0.0, {0});
  std::uint64_t count = 0;
  Tag tag;
  while (q.pop(tag)) {
    if (++count < 1000) {
      q.schedule_in(0.001, tag);
    }
  }
  EXPECT_EQ(count, 1000u);
  EXPECT_NEAR(q.now(), 0.999, 1e-9);
}

/// About 10k events on a coarse time grid, so many share an exact time,
/// and a quarter of the pops schedule a follow-up (some at exactly now()).
/// The pop order must be insertion order stable-sorted by time.
TEST(EventQueue, SeededTiesPopAsStableSortByTime) {
  util::Xoshiro256 rng(20231);
  const auto grid_time = [&rng](double base) {
    return base + 0.25 * static_cast<double>(rng.next_below(40));
  };
  struct Inserted {
    double time;
    int id;
  };
  std::vector<Inserted> inserted;
  Queue q;
  const auto schedule = [&](double t) {
    const int id = static_cast<int>(inserted.size());
    inserted.push_back({t, id});
    q.schedule_at(t, {id});
  };
  for (int i = 0; i < 8000; ++i) {
    schedule(grid_time(0.0));
  }
  std::vector<int> popped;
  Tag tag;
  while (q.pop(tag)) {
    popped.push_back(tag.id);
    if (inserted.size() < 10000 && rng.next_below(4) == 0) {
      schedule(grid_time(q.now()));
    }
  }
  ASSERT_EQ(inserted.size(), 10000u);
  std::stable_sort(
      inserted.begin(), inserted.end(),
      [](const Inserted& a, const Inserted& b) { return a.time < b.time; });
  std::vector<int> expected;
  expected.reserve(inserted.size());
  for (const Inserted& e : inserted) {
    expected.push_back(e.id);
  }
  EXPECT_EQ(popped, expected);
  EXPECT_EQ(q.processed(), 10000u);
  EXPECT_GE(q.peak_size(), 8000u);
}

}  // namespace
}  // namespace optiplet::sim
