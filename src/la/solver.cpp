#include "la/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "la/spmv.hpp"
#include "obs/trace.hpp"

namespace mimostat::la {

namespace {

/// Gauss-Seidel stopping rule: max-norm update threshold and sweep cap.
constexpr double kGaussSeidelEpsilon = 1e-12;
constexpr std::uint64_t kGaussSeidelMaxSweeps = 1'000'000;

}  // namespace

SolveStats gaussSeidel(const CsrMatrix& P,
                       const std::vector<std::uint32_t>& active,
                       const double* b, std::vector<double>& x) {
  const obs::Span span("la.solve.gauss-seidel");
  assert(x.size() == P.numRows());
  SolveStats stats;
  stats.solver = "gauss-seidel";
  if (active.empty()) {
    stats.converged = true;
    return stats;
  }
  const std::uint64_t* rowPtr = P.rowPtr().data();
  const std::uint32_t* col = P.col().data();
  const double* val = P.val().data();
  for (std::uint64_t iter = 0; iter < kGaussSeidelMaxSweeps; ++iter) {
    ++stats.iterations;
    double maxDelta = 0.0;
    for (const std::uint32_t s : active) {
      double acc = b != nullptr ? b[s] : 0.0;
      for (std::uint64_t k = rowPtr[s]; k < rowPtr[s + 1]; ++k) {
        acc += val[k] * x[col[k]];
      }
      maxDelta = std::max(maxDelta, std::fabs(acc - x[s]));
      x[s] = acc;
    }
    stats.residual = maxDelta;
    if (maxDelta < kGaussSeidelEpsilon) {
      stats.converged = true;
      return stats;
    }
  }
  return stats;
}

PowerResult PowerIteration::run(const CsrMatrix& P,
                                std::vector<double> initial,
                                const PowerOptions& options,
                                const Exec& exec) const {
  const obs::Span span("la.solve.power");
  assert(initial.size() == P.numRows());
  PowerResult result;
  result.stats.solver = "power";
  std::vector<double> pi = std::move(initial);
  std::vector<double> next(pi.size());

  for (std::uint64_t iter = 1; iter <= options.maxIterations; ++iter) {
    spmm(P, pi, 1, next, exec, Side::kLeft);
    // The L1 delta reduction stays a single ascending scan regardless of
    // how the multiply was partitioned — bit-identical at any pool size.
    double delta = 0.0;
    for (std::size_t s = 0; s < pi.size(); ++s) {
      delta += std::fabs(next[s] - pi[s]);
    }
    pi.swap(next);
    result.stats.iterations = iter;
    result.stats.residual = delta;
    if (delta < options.epsilon) {
      result.stats.converged = true;
      break;
    }
  }
  result.distribution = std::move(pi);
  return result;
}

}  // namespace mimostat::la
