// la::Solver — the iterative solvers behind the engine's two
// linear-algebra problem shapes, each reporting iterations / residual /
// convergence.
//
//   1. Fixed-point linear systems  x = P x + b  restricted to an active row
//      set (unbounded-until probabilities, expected reachability rewards):
//      gaussSeidel, in-place sweeps bit-identical to the pre-refactor value
//      iteration.
//   2. Stationary distributions  pi = pi P  (steady-state rewards):
//      PowerIteration, absorbing the legacy mc::steady loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/csr_matrix.hpp"
#include "la/exec.hpp"

namespace mimostat::la {

/// Convergence report every solver produces. mc:: hands it on unchanged to
/// mc::CheckResult and the engine response; mc::'s exact elimination paths
/// fill one too ({eliminated states, 0, true, "elimination"}).
struct SolveStats {
  std::uint64_t iterations = 0;
  /// Termination metric at the last iteration: max-norm update delta for
  /// Gauss-Seidel, L1 iterate delta for power iteration.
  double residual = 0.0;
  bool converged = false;
  /// Which solver produced this report ("gauss-seidel", "power") — stamped
  /// by the solver itself, so the name can never drift from the stats it
  /// describes.
  std::string solver;
};

/// Solves x = P x + b restricted to `active` rows by in-place sweeps in
/// ascending active order; rows outside the set keep their incoming x
/// values (fixed boundary conditions, e.g. prob1 states at 1.0).
/// `b == nullptr` means b = 0. Stops once a sweep's max-norm update drops
/// below 1e-12, or after 1,000,000 sweeps (converged stays false); both
/// constants live in solver.cpp. Inherently sequential: each update reads
/// earlier updates of the same sweep. Bit-identical to the legacy
/// mc::unbounded value iteration.
SolveStats gaussSeidel(const CsrMatrix& P,
                       const std::vector<std::uint32_t>& active,
                       const double* b, std::vector<double>& x);

struct PowerOptions {
  double epsilon = 1e-13;  ///< L1 convergence threshold
  std::uint64_t maxIterations = 200'000;
};

struct PowerResult {
  std::vector<double> distribution;
  SolveStats stats;
};

/// pi_{t+1} = pi_t P from `initial` until the L1 delta drops below epsilon
/// or maxIterations run out (then converged stays false). The multiply runs
/// on the block table via `exec`; the delta reduction stays sequential,
/// keeping results bit-identical to the legacy scalar loop at any thread
/// count.
class PowerIteration {
 public:
  [[nodiscard]] PowerResult run(const CsrMatrix& P,
                                std::vector<double> initial,
                                const PowerOptions& options,
                                const Exec& exec = {}) const;
};

}  // namespace mimostat::la
