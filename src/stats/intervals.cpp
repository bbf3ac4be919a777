#include "stats/intervals.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/gaussian.hpp"

namespace mimostat::stats {

namespace {

double logBeta(double a, double b) {
  return std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
}

/// Continued fraction for the incomplete beta (Lentz's method).
double betaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

/// Invert I_x(a,b) = target in x by bisection (monotone in x).
double invertIncompleteBeta(double a, double b, double target) {
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (regularizedIncompleteBeta(a, b, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double regularizedIncompleteBeta(double a, double b, double x) {
  assert(a > 0.0 && b > 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(a * std::log(x) + b * std::log1p(-x) - logBeta(a, b));
  // front = x^a (1-x)^b / B(a,b) is symmetric under (a,b,x) -> (b,a,1-x).
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * betaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

Interval wilsonInterval(std::uint64_t successes, std::uint64_t trials,
                        double confidence) {
  assert(trials > 0);
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z = normalInvCdf(0.5 + confidence / 2.0);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

Interval clopperPearsonInterval(std::uint64_t successes, std::uint64_t trials,
                                double confidence) {
  assert(trials > 0);
  assert(successes <= trials);
  const double alpha = 1.0 - confidence;
  const double n = static_cast<double>(trials);
  const double k = static_cast<double>(successes);
  Interval result;
  if (successes == 0) {
    result.low = 0.0;
  } else {
    // low solves I_{low}(k, n-k+1) = 1 - alpha/2.
    result.low = invertIncompleteBeta(k, n - k + 1.0, alpha / 2.0);
  }
  if (successes == trials) {
    result.high = 1.0;
  } else {
    result.high = invertIncompleteBeta(k + 1.0, n - k, 1.0 - alpha / 2.0);
  }
  return result;
}

}  // namespace mimostat::stats
