// Estimators no production path uses, kept for the tests that compare the
// Monte-Carlo baselines with them: batch means for correlated streams and
// the two-sided Hoeffding interval.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "stats/estimator.hpp"
#include "stats/gaussian.hpp"
#include "stats/intervals.hpp"

namespace mimostat::stats {

/// Batch-means estimator for *correlated* streams (e.g. the per-cycle
/// error process of a decoder, which is a function of a Markov chain).
/// The stream is cut into fixed-size batches; batch means are approximately
/// independent once the batch length exceeds the mixing time, so a normal
/// interval on the batch means has honest coverage where an iid Wilson
/// interval would be too narrow.
class BatchMeansEstimator {
 public:
  explicit BatchMeansEstimator(std::uint64_t batchSize)
      : batchSize_(batchSize) {
    assert(batchSize >= 1);
  }

  void add(double x) {
    ++observations_;
    batchSum_ += x;
    if (++inBatch_ == batchSize_) {
      batches_.add(batchSum_ / static_cast<double>(batchSize_));
      inBatch_ = 0;
      batchSum_ = 0.0;
    }
  }

  [[nodiscard]] std::uint64_t observations() const { return observations_; }
  [[nodiscard]] std::uint64_t completeBatches() const {
    return batches_.count();
  }
  /// Mean over complete batches.
  [[nodiscard]] double mean() const { return batches_.mean(); }
  /// Normal-approximation interval on the batch means. Requires at least
  /// two complete batches.
  [[nodiscard]] Interval interval(double confidence) const {
    assert(batches_.count() >= 2);
    const double z = normalInvCdf(0.5 + confidence / 2.0);
    const double half = z * batches_.standardError();
    return {batches_.mean() - half, batches_.mean() + half};
  }

 private:
  std::uint64_t batchSize_;
  std::uint64_t inBatch_ = 0;
  double batchSum_ = 0.0;
  std::uint64_t observations_ = 0;
  RunningStats batches_;
};

/// Two-sided Hoeffding bound: |p̂ - p| <= sqrt(ln(2/alpha)/(2N)).
inline Interval hoeffdingInterval(std::uint64_t successes,
                                  std::uint64_t trials, double confidence) {
  assert(trials > 0);
  const double p = static_cast<double>(successes) / static_cast<double>(trials);
  const double alpha = 1.0 - confidence;
  const double half =
      std::sqrt(std::log(2.0 / alpha) / (2.0 * static_cast<double>(trials)));
  return {std::max(0.0, p - half), std::min(1.0, p + half)};
}

}  // namespace mimostat::stats
