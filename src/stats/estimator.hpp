// Streaming estimators for Monte-Carlo runs.
#pragma once

#include <cstdint>

#include "stats/intervals.hpp"

namespace mimostat::stats {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Unbiased sample variance (0 for fewer than 2 samples).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Standard error of the mean.
  [[nodiscard]] double standardError() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Merge another accumulator (Chan's parallel formula).
  void merge(const RunningStats& other);

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Bernoulli (bit-error) counter with interval accessors.
class BernoulliEstimator {
 public:
  void add(bool success) {
    ++trials_;
    if (success) ++successes_;
  }

  [[nodiscard]] std::uint64_t trials() const { return trials_; }
  [[nodiscard]] std::uint64_t successes() const { return successes_; }
  [[nodiscard]] double estimate() const {
    return trials_ == 0 ? 0.0
                        : static_cast<double>(successes_) /
                              static_cast<double>(trials_);
  }

  [[nodiscard]] Interval wilson(double confidence) const {
    return wilsonInterval(successes_, trials_, confidence);
  }
  [[nodiscard]] Interval clopperPearson(double confidence) const {
    return clopperPearsonInterval(successes_, trials_, confidence);
  }

  /// Merge another counter (exact: order-independent sums).
  void merge(const BernoulliEstimator& other) {
    trials_ += other.trials_;
    successes_ += other.successes_;
  }

 private:
  std::uint64_t trials_ = 0;
  std::uint64_t successes_ = 0;
};

}  // namespace mimostat::stats
