// Confidence intervals and concentration bounds for Bernoulli estimates.
//
// These quantify the statistical error of the Monte-Carlo baseline the paper
// compares against: a simulation of N steps observing k errors yields a BER
// estimate whose interval must be reported to see whether simulation can
// resolve low BERs at all (the paper's 1x4 detector: zero errors in 1e5
// steps, i.e. the interval still spans [0, ~3.7e-5] while the model checker
// returns an exact 1.08e-5).
#pragma once

#include <cstdint>

namespace mimostat::stats {

struct Interval {
  double low = 0.0;
  double high = 1.0;

  [[nodiscard]] double width() const { return high - low; }
  [[nodiscard]] bool contains(double p) const { return p >= low && p <= high; }
};

/// Wilson score interval — good coverage even for small k.
[[nodiscard]] Interval wilsonInterval(std::uint64_t successes,
                                      std::uint64_t trials, double confidence);

/// Clopper–Pearson exact interval (via the regularized incomplete beta).
[[nodiscard]] Interval clopperPearsonInterval(std::uint64_t successes,
                                              std::uint64_t trials,
                                              double confidence);

/// Regularized incomplete beta function I_x(a, b) (continued fraction,
/// Numerical-Recipes style). Exposed for tests.
[[nodiscard]] double regularizedIncompleteBeta(double a, double b, double x);

}  // namespace mimostat::stats
