// Steady-state analysis.
//
// The paper argues its DTMCs are finite, irreducible and aperiodic and hence
// possess a unique stationary distribution; P2 evaluated past the mixing
// point is the BER. The solve itself lives in la::PowerIteration; this
// layer binds it to the DTMC's initial distribution and adds structural
// checks. Power iteration does not converge on periodic chains: it reports
// converged = false once la::PowerOptions' iteration cap runs out.
#pragma once

#include <cstdint>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/exec.hpp"
#include "la/solver.hpp"

namespace mimostat::mc {

/// Structural summary used to justify steady-state existence.
struct ChainStructure {
  bool irreducible = false;
  std::uint32_t period = 0;  ///< 1 = aperiodic (only valid when irreducible)
  std::uint32_t numSccs = 0;
  std::uint32_t numBottomSccs = 0;
};

[[nodiscard]] ChainStructure analyzeStructure(const dtmc::ExplicitDtmc& dtmc);

/// Stationary distribution by la::PowerIteration from the initial
/// distribution, under the default la::PowerOptions. `exec` parallelizes
/// the multiply (bit-stable at any thread count).
[[nodiscard]] la::PowerResult steadyStateDistribution(
    const dtmc::ExplicitDtmc& dtmc, const la::Exec& exec = {});

/// Long-run average reward pi . r (R=? [ S ] for a state reward) against
/// a solved distribution.
[[nodiscard]] double steadyStateReward(const la::PowerResult& steady,
                                       const std::vector<double>& reward);

}  // namespace mimostat::mc
