#pragma once
/// \file event_queue.hpp
/// Discrete-event kernel for the transaction-level system simulator.
///
/// Continuous time (seconds, double). Events scheduled at equal times pop
/// in insertion order (a monotone sequence number breaks ties), which keeps
/// the system simulator deterministic. An event is a trivially copyable
/// payload the caller dispatches itself (typically one `switch` over a kind
/// tag), so scheduling allocates nothing beyond the heap's own growth.

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/require.hpp"

namespace optiplet::sim {

/// Binary min-heap of (time, seq) → payload on a std::vector. Not
/// thread-safe by design: the transaction simulator is single-threaded.
///
/// The sifts are written out rather than taken from std::push_heap /
/// std::pop_heap: those move every entry through a stack temporary, and
/// reloading a just-written entry as one wide copy stalls store-to-load
/// forwarding. Here an entry is written and read field by field, and the
/// entry being placed stays in registers until its final slot is known.
template <class Payload>
class EventQueue {
  static_assert(std::is_trivially_copyable_v<Payload>,
                "event payloads are plain data: index state, do not own it");

 public:
  /// Schedule `payload` at absolute time `t` (seconds); t must not precede
  /// now().
  void schedule_at(double t, Payload payload) {
    OPTIPLET_REQUIRE(t >= now_, "cannot schedule in the past");
    const std::uint64_t seq = next_seq_++;
    std::size_t hole = heap_.size();
    heap_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (heap_[parent].before(t, seq)) {
        break;
      }
      heap_[hole].set(heap_[parent]);
      hole = parent;
    }
    heap_[hole].set(t, seq, payload);
    peak_size_ = std::max(peak_size_, heap_.size());
  }

  /// Schedule `payload` `dt` seconds from now; dt must be non-negative.
  void schedule_in(double dt, Payload payload) {
    OPTIPLET_REQUIRE(dt >= 0.0, "negative delay");
    schedule_at(now_ + dt, payload);
  }

  /// Move the earliest event into `out`, advance now() to its time and
  /// count it; returns false (leaving `out` alone) when the queue is empty.
  /// The caller dispatches `out` and may schedule from inside.
  bool pop(Payload& out) {
    if (heap_.empty()) {
      return false;
    }
    now_ = heap_.front().time;
    out = heap_.front().payload;
    ++processed_;
    // Sift the last entry down from the vacated root.
    const double t = heap_.back().time;
    const std::uint64_t seq = heap_.back().seq;
    const Payload payload = heap_.back().payload;
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) {
      return true;
    }
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      const std::size_t right = child + 1;
      if (right < n && heap_[right].before(heap_[child])) {
        child = right;
      }
      if (!heap_[child].before(t, seq)) {
        break;
      }
      heap_[hole].set(heap_[child]);
      hole = child;
    }
    heap_[hole].set(t, seq, payload);
    return true;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] double now() const { return now_; }

  /// Self-profiling: events popped so far and the deepest the heap has
  /// been. Both are deterministic (pure functions of the schedule), so they
  /// may surface in reports that determinism tests compare.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  [[nodiscard]] std::size_t peak_size() const { return peak_size_; }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    Payload payload;

    /// Pop order: earlier time first, insertion order on equal times.
    /// Keys are unique, so the order is fully determined.
    [[nodiscard]] bool before(double t, std::uint64_t s) const {
      return time != t ? time < t : seq < s;
    }
    [[nodiscard]] bool before(const Entry& other) const {
      return before(other.time, other.seq);
    }

    void set(double t, std::uint64_t s, const Payload& p) {
      time = t;
      seq = s;
      payload = p;
    }
    void set(const Entry& other) { set(other.time, other.seq, other.payload); }
  };

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  std::uint64_t processed_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace optiplet::sim
