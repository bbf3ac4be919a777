// State-elimination checker core, in the style of Storm's
// SparseDtmcEliminationModelChecker: solve the unbounded reachability /
// expected-reward linear system by Gaussian state elimination instead of an
// iterative solver. Non-boundary states are eliminated in a deterministic
// priority order (ascending state index): eliminating s removes its
// self-loop (scaling the row by 1/(1 - P(s,s))), then redistributes s's
// outgoing mass onto every not-yet-eliminated predecessor and accumulates
// its one-step value contribution there. Exact back-substitution in reverse
// order then yields every state's value — no epsilon, no iteration count.
//
// Graph precomputation (Prob0/Prob1) belongs to mc::, which owns the model
// semantics; this layer only sees the boundary classification. Fill-in can
// be quadratic on adversarial graphs — the engine runs it only on a coarse
// quotient (reduce::eliminationSelected).
#pragma once

#include <cstdint>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/bit_vector.hpp"

namespace mimostat::reduce {

struct EliminationResult {
  /// Original-state-indexed values: boundary states keep their fixed value,
  /// eliminated states carry the exact solution.
  std::vector<double> stateValues;
  /// States eliminated (the undetermined/active set size).
  std::uint32_t eliminated = 0;
  /// Matrix entries materialized beyond the active rows' original nnz.
  std::uint64_t fillIn = 0;
};

/// P(phi U psi) with precomputed Prob0/Prob1 sets: prob1 states are fixed
/// at 1, prob0 at 0, and every remaining state is eliminated. Deterministic
/// and exact (up to the scaling divisions).
[[nodiscard]] EliminationResult eliminateUntilProb(
    const dtmc::ExplicitDtmc& dtmc, const la::BitVector& prob0,
    const la::BitVector& prob1);

/// Expected reward accumulated before psi (R=? [ F psi ]): psi states are
/// fixed at 0, states outside `reachesPsi` (P(F psi) < 1) at +infinity, and
/// the remaining states — which reach psi almost surely and therefore never
/// step into an infinite state — are eliminated with the reward vector as
/// the per-state source term.
[[nodiscard]] EliminationResult eliminateReachReward(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<double>& reward,
    const la::BitVector& psi, const la::BitVector& reachesPsi);

}  // namespace mimostat::reduce
