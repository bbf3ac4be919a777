// Unbounded reachability: P(phi U psi) via the classic PRISM pipeline —
// Prob0 / Prob1 graph precomputation (on the matrix's cached stable
// transpose) followed by la::gaussSeidel on the remaining states,
// bit-identical to the legacy in-place value iteration.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/bit_vector.hpp"
#include "la/solver.hpp"

namespace mimostat::mc {

struct ReachResult {
  std::vector<double> stateValues;
  /// Report of the solve over the undetermined states: la::gaussSeidel's
  /// own stats, or the elimination variants' {eliminated states, 0, true,
  /// "elimination"}. Absent when Prob0/Prob1 classified every state and
  /// nothing was solved.
  std::optional<la::SolveStats> solver;
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
                                    const la::BitVector& psi);

/// P(F psi) = P(true U psi).
[[nodiscard]] ReachResult reachProb(const dtmc::ExplicitDtmc& dtmc,
                                    const la::BitVector& psi);

/// Expected reward accumulated before reaching psi (R=? [ F psi ]).
/// States from which psi is reached with probability < 1 get +infinity
/// (PRISM semantics); psi states accumulate nothing.
[[nodiscard]] ReachResult expectedReachReward(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<double>& reward,
    const la::BitVector& psi);

// Elimination-backed variants: same Prob0/Prob1 precomputation, but the
// undetermined states are solved exactly by reduce:: state elimination
// instead of an iterative solver. The report's iterations count the
// eliminated states, its residual is 0 and its solver name is
// "elimination" (absent when precomputation classified every state, as on
// the iterative paths). Selected through mc::CheckOptions::elimination,
// which the engine sets by reduce::eliminationSelected.

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
