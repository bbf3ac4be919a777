// Bounded path operators (the paper's P1 and P3 properties).
//
//   P(phi U<=k psi) — standard backward value iteration:
//     x_0 = [psi];  x_{j+1}(s) = psi(s) ? 1 : (phi(s) ? sum P(s,.) x_j : 0)
//   P(F<=k psi) = P(true U<=k psi)
//   P(G<=k phi) = 1 - P(F<=k !phi)
//
// Since the evaluation-plan refactor these are single-column wrappers over
// la::spmmMasked: psi states are frozen at 1.0 and !phi states at 0.0 —
// exactly their initial values — so every step is one masked traversal with
// the same per-row accumulation order as the pre-refactor private loop
// (bit-identical; tests keep the legacy loop inline as the reference). The
// batched path — k bounded formulas as k columns of ONE traversal per step
// — lives in mc::Checker::checkAll via pctl::buildPlan.
#pragma once

#include <cstdint>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/bit_vector.hpp"
#include "la/exec.hpp"

namespace mimostat::mc {

/// Per-state probability of (phi U<=bound psi). phi/psi are packed state
/// sets of numStates bits.
[[nodiscard]] std::vector<double> boundedUntil(const dtmc::ExplicitDtmc& dtmc,
                                               const la::BitVector& phi,
                                               const la::BitVector& psi,
                                               std::uint64_t bound,
                                               const la::Exec& exec = {});

/// Per-state probability of F<=bound psi.
[[nodiscard]] std::vector<double> boundedFinally(
    const dtmc::ExplicitDtmc& dtmc, const la::BitVector& psi,
    std::uint64_t bound, const la::Exec& exec = {});

/// Per-state probability of G<=bound phi.
[[nodiscard]] std::vector<double> boundedGlobally(
    const dtmc::ExplicitDtmc& dtmc, const la::BitVector& phi,
    std::uint64_t bound, const la::Exec& exec = {});

/// Per-state probability of X psi.
[[nodiscard]] std::vector<double> nextProb(const dtmc::ExplicitDtmc& dtmc,
                                           const la::BitVector& psi,
                                           const la::Exec& exec = {});

/// Weigh per-state values by the initial distribution.
[[nodiscard]] double fromInitial(const dtmc::ExplicitDtmc& dtmc,
                                 const std::vector<double>& stateValues);

}  // namespace mimostat::mc
