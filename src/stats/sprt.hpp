// Wald's Sequential Probability Ratio Test for Bernoulli parameters.
//
// This is the statistical-model-checking baseline (cf. Clarke/Donze/Legay,
// cited as [13] in the paper): test H0: p <= theta - delta against
// H1: p >= theta + delta with prescribed error probabilities alpha/beta.
// We use it in benches to contrast "statistical guarantee by sampling" with
// the exact guarantee from probabilistic model checking.
#pragma once

#include <cstdint>

namespace mimostat::stats {

enum class SprtDecision {
  kContinue,   ///< not enough evidence yet
  kAcceptH0,   ///< p <= theta - delta accepted
  kAcceptH1,   ///< p >= theta + delta accepted
};

class Sprt {
 public:
  /// @param theta      threshold being tested
  /// @param delta      indifference half-width (0 < delta < min(theta,1-theta))
  /// @param alpha      max P(accept H1 | H0 true)
  /// @param beta       max P(accept H0 | H1 true)
  Sprt(double theta, double delta, double alpha, double beta);

  /// Feed one Bernoulli observation; returns the current decision.
  SprtDecision add(bool success);

  [[nodiscard]] SprtDecision decision() const { return decision_; }
  [[nodiscard]] std::uint64_t observations() const { return n_; }

 private:
  double p0_;
  double p1_;
  double logA_;
  double logB_;
  double llr_ = 0.0;
  std::uint64_t n_ = 0;
  SprtDecision decision_ = SprtDecision::kContinue;
};

}  // namespace mimostat::stats
