// Transient analysis: forward propagation of the state distribution.
//
// R=? [ I=T ] (the paper's P2/C1 average-case metrics) is the expected
// instantaneous reward after exactly T transitions: pi_T . r where
// pi_T = pi_0 P^T.
//
// Every propagation step runs through la::spmvLeft / la::spmmLeft, so a
// caller-supplied la::Exec fans the multiply over a thread pool with
// bit-identical results at any pool size.
#pragma once

#include <cstdint>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/exec.hpp"

namespace mimostat::mc {

/// Resumable forward iteration of one or more state distributions:
/// pi_{t+1} = pi_t P. One sweep serves every horizon-bounded query against
/// the same model — the engine's batcher advances a single sweep to the
/// largest requested horizon and samples rewards along the way, instead of
/// re-propagating from pi_0 once per property. Advancing t steps performs
/// exactly the same multiply sequence as a fresh t-step propagation, so
/// sampled values match per-call results bit for bit.
///
/// The multi-vector form carries k distributions through ONE matrix
/// traversal per step (la::spmm): each vector's floating-point sequence is
/// identical to its own single-vector sweep, so batching k sweeps changes
/// wall-clock only, never values.
///
/// Stationary stop: once a multiply returns its input tile unchanged, bit
/// for bit (memcmp, so -0.0 vs +0.0 counts as a change), the sweep is
/// stationary and stops multiplying — later steps only advance the counter.
/// This is exact, not an epsilon test: the kernels are deterministic
/// functions of the tile (bit-identical at any pool size and SIMD target,
/// both fixed for one sweep), so pi_{t+1} == pi_t implies pi_{t+j} == pi_t
/// for every j, and every sampled value is the one a full propagation
/// would produce.
class TransientSweep {
 public:
  explicit TransientSweep(const dtmc::ExplicitDtmc& dtmc, la::Exec exec = {});
  /// Advance the k given start distributions together. Each must have
  /// numStates entries.
  TransientSweep(const dtmc::ExplicitDtmc& dtmc,
                 std::vector<std::vector<double>> starts, la::Exec exec = {});

  /// Steps taken so far (the t of the current distributions).
  [[nodiscard]] std::uint64_t step() const { return step_; }
  /// Matrix traversals actually run: step() until the sweep went
  /// stationary, then frozen.
  [[nodiscard]] std::uint64_t multiplies() const { return multiplies_; }
  /// True once a multiply returned its input tile bit for bit; every later
  /// step leaves the distributions unchanged.
  [[nodiscard]] bool stationary() const { return stationary_; }
  /// Number of distributions advancing together.
  [[nodiscard]] std::size_t vectorCount() const { return vectors_; }
  /// The current distribution pi_t (single-vector sweeps only).
  [[nodiscard]] const std::vector<double>& distribution() const;
  /// Copy of distribution i (any sweep width).
  [[nodiscard]] std::vector<double> distributionAt(std::size_t i) const;

  /// Advance one transition (all vectors, one matrix traversal; no
  /// traversal once stationary).
  void advance();
  /// Advance to an absolute step (forward only; throws std::invalid_argument
  /// on an earlier step). O(1) once stationary.
  void advanceTo(std::uint64_t step);

  /// Expected reward under the current distribution: pi_t . r
  /// (single-vector sweeps).
  [[nodiscard]] double expectedReward(const std::vector<double>& reward) const;
  /// Expected reward under distribution i.
  [[nodiscard]] double expectedRewardAt(std::size_t i,
                                        const std::vector<double>& reward) const;

 private:
  const dtmc::ExplicitDtmc& dtmc_;
  la::Exec exec_;
  /// Row-major numStates x vectors_ (vector j of state s at x_[s*k + j]);
  /// for vectors_ == 1 this is a plain distribution.
  std::vector<double> x_;
  std::vector<double> scratch_;
  std::size_t vectors_ = 1;
  std::uint64_t step_ = 0;
  std::uint64_t multiplies_ = 0;
  bool stationary_ = false;
};

/// R=?[I=T] for each horizon in one sweep to max(horizons). Horizons may be
/// unsorted and may repeat; results are returned in input order and are bit
/// identical to per-horizon instantaneousReward calls.
[[nodiscard]] std::vector<double> instantaneousRewardAtHorizons(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<double>& reward,
    const std::vector<std::uint64_t>& horizons, const la::Exec& exec = {});

/// Distribution after exactly `steps` transitions from the initial
/// distribution.
[[nodiscard]] std::vector<double> transientDistribution(
    const dtmc::ExplicitDtmc& dtmc, std::uint64_t steps,
    const la::Exec& exec = {});

/// Expected instantaneous reward after exactly `steps` transitions
/// (R=? [ I=steps ]).
[[nodiscard]] double instantaneousReward(const dtmc::ExplicitDtmc& dtmc,
                                         const std::vector<double>& reward,
                                         std::uint64_t steps,
                                         const la::Exec& exec = {});

/// Expected cumulative reward over the first `steps` transitions
/// (R=? [ C<=steps ]): sum_{t=0}^{steps-1} pi_t . r. The sum keeps adding
/// pi_t . r once per step after the sweep goes stationary (same addition
/// sequence, same bits), but stops multiplying.
[[nodiscard]] double cumulativeReward(const dtmc::ExplicitDtmc& dtmc,
                                      const std::vector<double>& reward,
                                      std::uint64_t steps,
                                      const la::Exec& exec = {});

/// Instantaneous reward at every t in [0, steps] — one pass, used for
/// steady-state detection sweeps (the paper's Tables III/IV). Entries past
/// the sweep's stationary step repeat the stationary value.
[[nodiscard]] std::vector<double> instantaneousRewardSeries(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<double>& reward,
    std::uint64_t steps, const la::Exec& exec = {});

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
