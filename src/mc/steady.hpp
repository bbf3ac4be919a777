// Steady-state analysis.
//
// The paper argues its DTMCs are finite, irreducible and aperiodic and hence
// possess a unique stationary distribution; P2 evaluated past the mixing
// point is the BER. The solve itself lives in la::PowerIteration; this
// layer binds it to the DTMC's initial distribution and adds structural
// checks. Power iteration does not converge on periodic chains: it reports
// converged = false once maxIterations run out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/exec.hpp"
#include "la/solver.hpp"

namespace mimostat::mc {

struct SteadyOptions {
  double epsilon = 1e-13;          ///< L1 convergence threshold
  std::uint64_t maxIterations = 200'000;
  la::Exec exec;                   ///< parallel multiply (bit-stable)
};

struct SteadyResult {
  std::vector<double> distribution;
  std::uint64_t iterations = 0;
  bool converged = false;
  /// L1 delta of the last iterate (the power solver's residual).
  double residual = 0.0;
  /// Solver that produced the distribution ("power").
  std::string solver;
};

/// Structural summary used to justify steady-state existence.
struct ChainStructure {
  bool irreducible = false;
  std::uint32_t period = 0;  ///< 1 = aperiodic (only valid when irreducible)
  std::uint32_t numSccs = 0;
  std::uint32_t numBottomSccs = 0;
};

[[nodiscard]] ChainStructure analyzeStructure(const dtmc::ExplicitDtmc& dtmc);

/// Stationary distribution by la::PowerIteration from the initial
/// distribution.
[[nodiscard]] SteadyResult steadyStateDistribution(
    const dtmc::ExplicitDtmc& dtmc, const SteadyOptions& options = {});

/// Long-run average reward pi . r (R=? [ S ] for a state reward) against
/// a solved distribution.
[[nodiscard]] double steadyStateReward(const SteadyResult& steady,
                                       const std::vector<double>& reward);

}  // namespace mimostat::mc
