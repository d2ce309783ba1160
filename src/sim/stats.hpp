#pragma once
/// \file stats.hpp
/// Simulation statistics: running moments and log-bucket histograms.
///
/// These are the primitives every simulator in the library reports through;
/// keeping them allocation-light matters because the cycle-accurate NoC
/// updates them on every packet.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/require.hpp"

namespace optiplet::sim {

/// Streaming mean/variance/min/max (Welford's algorithm): O(1) per sample,
/// numerically stable for the long runs the NoC simulator produces.
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double min() const {
    return n_ ? min_ : 0.0;
  }
  [[nodiscard]] double max() const {
    return n_ ? max_ : 0.0;
  }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

  /// Fold `other` into this stat (Chan et al. parallel variance update), so
  /// per-package or per-thread stats can be pooled without resampling.
  void merge(const RunningStat& other) {
    if (other.n_ == 0) {
      return;
    }
    if (n_ == 0) {
      *this = other;
      return;
    }
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * nb / (na + nb);
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
    n_ += other.n_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }

  void reset() { *this = RunningStat{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Geometric-bucket histogram spanning [lo, hi): bucket i covers
/// [lo*r^i, lo*r^(i+1)) with r chosen so `bucket_count` buckets tile the
/// range. Log-scale buckets give constant *relative* resolution, which is
/// what latency distributions spanning microseconds to seconds need; the
/// fixed layout makes histograms from different packages/threads mergeable
/// bucket-by-bucket.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, std::size_t bucket_count)
      : lo_(lo), hi_(hi), bins_(bucket_count, 0) {
    OPTIPLET_REQUIRE(lo > 0.0 && hi > lo, "log histogram needs 0 < lo < hi");
    OPTIPLET_REQUIRE(bucket_count > 0, "log histogram needs >= 1 bucket");
    log_lo_ = std::log(lo);
    inv_log_ratio_ =
        static_cast<double>(bucket_count) / (std::log(hi) - log_lo_);
  }

  void add(double x) {
    stat_.add(x);
    if (!(x >= lo_)) {  // negatives, zeros, and NaN all land below range
      ++underflow_;
      return;
    }
    if (x >= hi_) {
      ++overflow_;
      return;
    }
    auto idx =
        static_cast<std::size_t>((std::log(x) - log_lo_) * inv_log_ratio_);
    if (idx >= bins_.size()) {  // guard the hi edge against rounding
      idx = bins_.size() - 1;
    }
    ++bins_[idx];
  }

  /// Fold `other` (same layout required) into this histogram.
  void merge(const LogHistogram& other) {
    OPTIPLET_REQUIRE(lo_ == other.lo_ && hi_ == other.hi_ &&
                         bins_.size() == other.bins_.size(),
                     "cannot merge log histograms with different layouts");
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      bins_[i] += other.bins_[i];
    }
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    stat_.merge(other.stat_);
  }

  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return bins_.at(i); }
  [[nodiscard]] std::size_t bin_count() const { return bins_.size(); }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] const RunningStat& stat() const { return stat_; }

  /// Lower edge of bucket `i` (edge `bin_count()` is the histogram's hi).
  [[nodiscard]] double edge(std::size_t i) const {
    OPTIPLET_REQUIRE(i <= bins_.size(), "edge index out of range");
    return std::exp(log_lo_ + static_cast<double>(i) / inv_log_ratio_);
  }

  /// Value below which `q` (0..1] of samples fall, interpolated
  /// geometrically within the containing bucket. Underflow pins to lo,
  /// overflow pins to hi.
  [[nodiscard]] double quantile(double q) const {
    OPTIPLET_REQUIRE(q > 0.0 && q <= 1.0, "quantile must be in (0,1]");
    const std::uint64_t total = stat_.count();
    if (total == 0) {
      return 0.0;
    }
    const auto target =
        static_cast<std::uint64_t>(q * static_cast<double>(total) + 0.5);
    std::uint64_t seen = underflow_;
    if (seen >= target) {
      return lo_;
    }
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      seen += bins_[i];
      if (seen >= target) {
        const std::uint64_t into = bins_[i] - (seen - target);
        const double frac =
            bins_[i] ? static_cast<double>(into) / static_cast<double>(bins_[i])
                     : 0.0;
        return std::exp(log_lo_ +
                        (static_cast<double>(i) + frac) / inv_log_ratio_);
      }
    }
    return hi_;
  }

 private:
  double lo_;
  double hi_;
  double log_lo_;
  double inv_log_ratio_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  RunningStat stat_;
};

}  // namespace optiplet::sim
