#include <gtest/gtest.h>

#include <cmath>

#include "stats/estimator.hpp"
#include "stats/gaussian.hpp"
#include "stats/intervals.hpp"
#include "stats/sprt.hpp"
#include "stats_extra.hpp"
#include "util/rng.hpp"

namespace mimostat {
namespace {

TEST(Gaussian, CdfKnownValues) {
  EXPECT_NEAR(stats::normalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(stats::normalCdf(1.959963985), 0.975, 1e-9);
  EXPECT_NEAR(stats::normalCdf(-1.959963985), 0.025, 1e-9);
  EXPECT_NEAR(stats::normalCdf(1.0), 0.8413447460685429, 1e-12);
}

TEST(Gaussian, TailAccurateFarOut) {
  // Q(8) ~ 6.22e-16: must not be rounded to zero (the paper's BER regime).
  EXPECT_GT(stats::normalTail(8.0), 1e-16);
  EXPECT_LT(stats::normalTail(8.0), 1e-15);
  EXPECT_NEAR(stats::normalTail(0.0), 0.5, 1e-15);
}

TEST(Gaussian, CdfTailComplement) {
  for (const double x : {-3.0, -1.0, 0.0, 0.5, 2.5}) {
    EXPECT_NEAR(stats::normalCdf(x) + stats::normalTail(x), 1.0, 1e-14);
  }
}

TEST(Gaussian, PdfIntegratesToCdfDelta) {
  // Trapezoidal integral of the pdf over [-1, 1] vs CDF difference.
  const int n = 20000;
  double integral = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x0 = -1.0 + 2.0 * i / n;
    const double x1 = -1.0 + 2.0 * (i + 1) / n;
    integral += 0.5 * (stats::normalPdf(x0) + stats::normalPdf(x1)) * (x1 - x0);
  }
  EXPECT_NEAR(integral, stats::normalCdf(1.0) - stats::normalCdf(-1.0), 1e-8);
}

TEST(Gaussian, InverseRoundTrip) {
  for (const double p : {1e-10, 1e-4, 0.025, 0.5, 0.8, 0.975, 1.0 - 1e-6}) {
    EXPECT_NEAR(stats::normalCdf(stats::normalInvCdf(p)), p,
                1e-12 + 1e-9 * p);
  }
}

TEST(Gaussian, IntervalProbMatchesCdfDifference) {
  EXPECT_NEAR(stats::normalIntervalProb(-1.0, 1.0, 0.0, 1.0),
              stats::normalCdf(1.0) - stats::normalCdf(-1.0), 1e-14);
  EXPECT_NEAR(stats::normalIntervalProb(3.0, 4.0, 0.0, 1.0),
              stats::normalCdf(4.0) - stats::normalCdf(3.0), 1e-16);
  // Shift/scale invariance.
  EXPECT_NEAR(stats::normalIntervalProb(1.0, 3.0, 2.0, 0.5),
              stats::normalIntervalProb(-2.0, 2.0, 0.0, 1.0), 1e-14);
}

TEST(IncompleteBeta, KnownValues) {
  // I_x(1,1) = x.
  EXPECT_NEAR(stats::regularizedIncompleteBeta(1, 1, 0.3), 0.3, 1e-12);
  // I_x(2,1) = x^2.
  EXPECT_NEAR(stats::regularizedIncompleteBeta(2, 1, 0.6), 0.36, 1e-12);
  // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(stats::regularizedIncompleteBeta(3.5, 2.25, 0.4),
              1.0 - stats::regularizedIncompleteBeta(2.25, 3.5, 0.6), 1e-12);
  EXPECT_EQ(stats::regularizedIncompleteBeta(2, 3, 0.0), 0.0);
  EXPECT_EQ(stats::regularizedIncompleteBeta(2, 3, 1.0), 1.0);
}

TEST(Intervals, WilsonContainsEstimate) {
  const auto ival = stats::wilsonInterval(30, 100, 0.95);
  EXPECT_LT(ival.low, 0.3);
  EXPECT_GT(ival.high, 0.3);
  EXPECT_TRUE(ival.contains(0.3));
}

TEST(Intervals, ZeroSuccessesStillInformative) {
  // The paper's point: 0 errors in 1e5 steps only bounds the BER above.
  const auto ival = stats::clopperPearsonInterval(0, 100000, 0.95);
  EXPECT_EQ(ival.low, 0.0);
  // Exact rule-of-three-ish bound: 1 - (alpha/2)^(1/n) ~ 3.7e-5.
  EXPECT_NEAR(ival.high, 3.7e-5, 0.4e-5);
  // A true BER of 1.08e-5 (Table V, 1x4) is inside: simulation can't rule
  // it out, while the model checker computes it exactly.
  EXPECT_TRUE(ival.contains(1.08e-5));
}

TEST(Intervals, ClopperPearsonCoversWilson) {
  // CP is conservative: it should (weakly) contain the Wilson interval.
  const auto cp = stats::clopperPearsonInterval(7, 50, 0.95);
  const auto wilson = stats::wilsonInterval(7, 50, 0.95);
  EXPECT_LE(cp.low, wilson.low + 1e-9);
  EXPECT_GE(cp.high, wilson.high - 1e-9);
}

TEST(Intervals, HoeffdingWidthScalesInverseSqrt) {
  // Use p = 0.5 so neither interval clips at the [0,1] boundary.
  const auto narrow = stats::hoeffdingInterval(5000, 10000, 0.95);
  const auto wide = stats::hoeffdingInterval(50, 100, 0.95);
  EXPECT_NEAR(wide.width() / narrow.width(), 10.0, 0.5);
}

TEST(RunningStats, MeanAndVariance) {
  stats::RunningStats rs;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_NEAR(rs.mean(), 5.0, 1e-12);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  util::Xoshiro256 rng(5);
  stats::RunningStats whole;
  stats::RunningStats partA;
  stats::RunningStats partB;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.nextGaussian() * 3.0 + 1.0;
    whole.add(x);
    (i < 400 ? partA : partB).add(x);
  }
  partA.merge(partB);
  EXPECT_EQ(partA.count(), whole.count());
  EXPECT_NEAR(partA.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(partA.variance(), whole.variance(), 1e-8);
}

TEST(BatchMeans, MeanMatchesStreamMean) {
  stats::BatchMeansEstimator batches(100);
  util::Xoshiro256 rng(21);
  double total = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.nextDouble();
    total += x;
    batches.add(x);
  }
  EXPECT_EQ(batches.observations(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(batches.completeBatches(), 100u);
  EXPECT_NEAR(batches.mean(), total / n, 1e-12);
}

TEST(BatchMeans, IgnoresIncompleteTailBatch) {
  stats::BatchMeansEstimator batches(10);
  for (int i = 0; i < 25; ++i) batches.add(1.0);
  EXPECT_EQ(batches.completeBatches(), 2u);
  EXPECT_EQ(batches.observations(), 25u);
}

TEST(BatchMeans, IntervalCoversIidMean) {
  stats::BatchMeansEstimator batches(200);
  util::Xoshiro256 rng(31);
  for (int i = 0; i < 40000; ++i) batches.add(rng.nextDouble() < 0.3);
  const auto interval = batches.interval(0.99);
  EXPECT_TRUE(interval.contains(0.3))
      << "[" << interval.low << ", " << interval.high << "]";
}

TEST(BatchMeans, WiderThanIidIntervalOnCorrelatedStream) {
  // A slowly-flipping (highly autocorrelated) 0/1 stream: the batch-means
  // interval must be substantially wider than the (invalid) iid Wilson
  // interval on the same data.
  util::Xoshiro256 rng(41);
  stats::BatchMeansEstimator batches(500);
  stats::BernoulliEstimator iid;
  int state = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.nextDouble() < 0.01) state = 1 - state;  // sticky process
    batches.add(state);
    iid.add(state != 0);
  }
  const auto honest = batches.interval(0.95);
  const auto naive = iid.wilson(0.95);
  EXPECT_GT(honest.width(), 3.0 * naive.width());
}

TEST(Bernoulli, EstimateAndIntervals) {
  stats::BernoulliEstimator est;
  for (int i = 0; i < 100; ++i) est.add(i < 25);
  EXPECT_EQ(est.trials(), 100u);
  EXPECT_EQ(est.successes(), 25u);
  EXPECT_NEAR(est.estimate(), 0.25, 1e-15);
  EXPECT_TRUE(est.wilson(0.95).contains(0.25));
  EXPECT_TRUE(stats::hoeffdingInterval(est.successes(), est.trials(), 0.95)
                  .contains(0.25));
}

TEST(Sprt, AcceptsH1OnHighRate) {
  stats::Sprt test(0.1, 0.02, 0.01, 0.01);
  util::Xoshiro256 rng(11);
  stats::SprtDecision decision = stats::SprtDecision::kContinue;
  for (int i = 0; i < 100000 && decision == stats::SprtDecision::kContinue;
       ++i) {
    decision = test.add(rng.nextDouble() < 0.2);
  }
  EXPECT_EQ(decision, stats::SprtDecision::kAcceptH1);
}

TEST(Sprt, AcceptsH0OnLowRate) {
  stats::Sprt test(0.1, 0.02, 0.01, 0.01);
  util::Xoshiro256 rng(13);
  stats::SprtDecision decision = stats::SprtDecision::kContinue;
  for (int i = 0; i < 100000 && decision == stats::SprtDecision::kContinue;
       ++i) {
    decision = test.add(rng.nextDouble() < 0.03);
  }
  EXPECT_EQ(decision, stats::SprtDecision::kAcceptH0);
}

TEST(Sprt, DecisionSticks) {
  stats::Sprt test(0.5, 0.1, 0.05, 0.05);
  for (int i = 0; i < 1000; ++i) test.add(true);
  EXPECT_EQ(test.decision(), stats::SprtDecision::kAcceptH1);
  const auto n = test.observations();
  test.add(false);
  EXPECT_EQ(test.observations(), n);  // no more observations consumed
}

}  // namespace
}  // namespace mimostat
