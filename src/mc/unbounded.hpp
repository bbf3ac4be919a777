// Unbounded reachability: P(phi U psi) via the classic PRISM pipeline —
// Prob0 / Prob1 graph precomputation (on the matrix's cached stable
// transpose) followed by la::gaussSeidel on the remaining states,
// bit-identical to the legacy in-place value iteration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/bit_vector.hpp"
#include "la/solver.hpp"

namespace mimostat::mc {

struct ReachOptions {
  double epsilon = 1e-12;       ///< value-iteration convergence threshold
  std::uint64_t maxIterations = 1'000'000;
};

struct ReachResult {
  std::vector<double> stateValues;
  std::uint64_t iterations = 0;
  bool converged = true;
  /// Max-norm update delta of the last iteration.
  double residual = 0.0;
  /// Name of the la:: solver that ran the value iteration; empty when
  /// Prob0/Prob1 classified every state and no solver was needed.
  std::string solver;
};

/// States with P(phi U psi) = 0: complement of backward reachability of psi
/// through phi states. phi/psi are packed state sets of numStates bits.
[[nodiscard]] la::BitVector prob0States(const dtmc::ExplicitDtmc& dtmc,
                                        const la::BitVector& phi,
                                        const la::BitVector& psi);

/// States with P(phi U psi) = 1 (standard double-fixpoint algorithm).
[[nodiscard]] la::BitVector prob1States(const dtmc::ExplicitDtmc& dtmc,
                                        const la::BitVector& phi,
                                        const la::BitVector& psi);

/// Full unbounded until probabilities.
[[nodiscard]] ReachResult untilProb(const dtmc::ExplicitDtmc& dtmc,
                                    const la::BitVector& phi,
                                    const la::BitVector& psi,
                                    const ReachOptions& options = {});

/// P(F psi) = P(true U psi).
[[nodiscard]] ReachResult reachProb(const dtmc::ExplicitDtmc& dtmc,
                                    const la::BitVector& psi,
                                    const ReachOptions& options = {});

/// Expected reward accumulated before reaching psi (R=? [ F psi ]).
/// States from which psi is reached with probability < 1 get +infinity
/// (PRISM semantics); psi states accumulate nothing.
[[nodiscard]] ReachResult expectedReachReward(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<double>& reward,
    const la::BitVector& psi, const ReachOptions& options = {});

// Elimination-backed variants: same Prob0/Prob1 precomputation, but the
// undetermined states are solved exactly by reduce:: state elimination
// instead of an iterative solver. ReachResult::iterations reports the
// number of eliminated states, residual is 0 and the solver name is
// "elimination" (empty when precomputation classified every state, matching
// the iterative paths' "no solver ran" convention). Selected through
// mc::CheckOptions::reduction / engine auto-selection.

/// P(phi U psi) by state elimination.
[[nodiscard]] ReachResult untilProbByElimination(const dtmc::ExplicitDtmc& dtmc,
                                                 const la::BitVector& phi,
                                                 const la::BitVector& psi);

/// P(F psi) by state elimination.
[[nodiscard]] ReachResult reachProbByElimination(const dtmc::ExplicitDtmc& dtmc,
                                                 const la::BitVector& psi);

/// R=? [ F psi ] by state elimination.
[[nodiscard]] ReachResult expectedReachRewardByElimination(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<double>& reward,
    const la::BitVector& psi);

}  // namespace mimostat::mc
