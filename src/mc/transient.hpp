// Transient analysis: forward propagation of the state distribution.
//
// R=? [ I=T ] (the paper's P2/C1 average-case metrics) is the expected
// instantaneous reward after exactly T transitions: pi_T . r where
// pi_T = pi_0 P^T.
//
// Every propagation step is a left la::spmm, so a caller-supplied la::Exec
// fans the multiply over a thread pool with bit-identical results at any
// pool size.
#pragma once

#include <cstdint>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/exec.hpp"

namespace mimostat::mc {

/// Resumable forward iteration of the state distribution from pi_0:
/// pi_{t+1} = pi_t P. One sweep serves every horizon-bounded query against
/// the same model — mc::Checker's transient group advances a single sweep
/// to the largest requested horizon and samples rewards along the way,
/// instead of re-propagating from pi_0 once per property. Advancing t steps
/// performs exactly the multiply sequence of a fresh t-step propagation.
///
/// Stationary stop: once a multiply returns its input bit for bit (memcmp,
/// so -0.0 vs +0.0 counts as a change), the sweep is stationary and stops
/// multiplying — later steps only advance the counter. This is exact, not
/// an epsilon test: the kernel is a deterministic function of its input
/// (bit-identical at any pool size and SIMD target, both fixed for one
/// sweep), so pi_{t+1} == pi_t implies pi_{t+j} == pi_t for every j, and
/// every sampled value is the one a full propagation would produce.
class TransientSweep {
 public:
  explicit TransientSweep(const dtmc::ExplicitDtmc& dtmc, la::Exec exec = {});

  /// Steps taken so far (the t of the current distribution).
  [[nodiscard]] std::uint64_t step() const { return step_; }
  /// Matrix traversals actually run: step() until the sweep went
  /// stationary, then frozen.
  [[nodiscard]] std::uint64_t multiplies() const { return multiplies_; }
  /// True once a multiply returned its input bit for bit; every later
  /// step leaves the distribution unchanged.
  [[nodiscard]] bool stationary() const { return stationary_; }
  /// The current distribution pi_t.
  [[nodiscard]] const std::vector<double>& distribution() const { return x_; }

  /// Advance one transition (no traversal once stationary).
  void advance();
  /// Advance to an absolute step (forward only; throws std::invalid_argument
  /// on an earlier step). O(1) once stationary.
  void advanceTo(std::uint64_t step);

  /// Expected reward under the current distribution: pi_t . r.
  [[nodiscard]] double expectedReward(const std::vector<double>& reward) const;

 private:
  const dtmc::ExplicitDtmc& dtmc_;
  la::Exec exec_;
  std::vector<double> x_;
  std::vector<double> scratch_;
  std::uint64_t step_ = 0;
  std::uint64_t multiplies_ = 0;
  bool stationary_ = false;
};

struct SteadyDetection {
  bool converged = false;
  std::uint64_t step = 0;   ///< first step where the criterion held
  double value = 0.0;       ///< reward value at that step
};

/// Iterate the instantaneous reward forward until successive values over a
/// window of `window` steps stay within `tolerance`, or `maxSteps` is hit.
/// This operationalises the paper's "explore until the DTMC reaches steady
/// state" recipe. With maxSteps = 0 the result is the t=0 reward pi_0 . r.
[[nodiscard]] SteadyDetection detectRewardSteadyState(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<double>& reward,
    double tolerance, std::uint64_t window, std::uint64_t maxSteps,
    const la::Exec& exec = {});

}  // namespace mimostat::mc
