// The pre-refactor numeric loops, verbatim: the independent oracles the
// la::spmm-based paths (mc::Checker's bounded group and transient sweep,
// power iteration) must reproduce bit for bit. They index the CSR arrays
// directly and call no la:: kernel, so a kernel bug cannot hide in both
// sides of a comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/csr_matrix.hpp"

namespace mimostat::test {

/// y = x^T A by the source-major scatter (the old left product).
inline std::vector<double> legacyScatterLeft(const la::CsrMatrix& m,
                                             const std::vector<double>& x) {
  std::vector<double> y(m.numCols(), 0.0);
  for (std::uint32_t s = 0; s < m.numRows(); ++s) {
    const double xs = x[s];
    if (xs == 0.0) continue;
    for (std::uint64_t k = m.rowPtr()[s]; k < m.rowPtr()[s + 1]; ++k) {
      y[m.col()[k]] += xs * m.val()[k];
    }
  }
  return y;
}

/// y = A x by the row gather (the old right product).
inline std::vector<double> legacyGatherRight(const la::CsrMatrix& m,
                                             const std::vector<double>& x) {
  std::vector<double> y(m.numRows(), 0.0);
  for (std::uint32_t s = 0; s < m.numRows(); ++s) {
    double acc = 0.0;
    for (std::uint64_t k = m.rowPtr()[s]; k < m.rowPtr()[s + 1]; ++k) {
      acc += m.val()[k] * x[m.col()[k]];
    }
    y[s] = acc;
  }
  return y;
}

/// Per-state P(phi U<=bound psi): the old bounded-until loop.
inline std::vector<double> legacyBoundedUntil(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<std::uint8_t>& phi,
    const std::vector<std::uint8_t>& psi, std::uint64_t bound) {
  const std::uint32_t n = dtmc.numStates();
  std::vector<double> x(n);
  for (std::uint32_t s = 0; s < n; ++s) x[s] = psi[s] ? 1.0 : 0.0;
  std::vector<double> next(n);
  for (std::uint64_t j = 0; j < bound; ++j) {
    for (std::uint32_t s = 0; s < n; ++s) {
      if (psi[s]) {
        next[s] = 1.0;
      } else if (!phi[s]) {
        next[s] = 0.0;
      } else {
        double acc = 0.0;
        for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1];
             ++k) {
          acc += dtmc.val()[k] * x[dtmc.col()[k]];
        }
        next[s] = acc;
      }
    }
    x.swap(next);
  }
  return x;
}

/// Per-state P(X psi): the old next-step skip loop.
inline std::vector<double> legacyNextProb(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<std::uint8_t>& psi) {
  const std::uint32_t n = dtmc.numStates();
  std::vector<double> x(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    double acc = 0.0;
    for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1]; ++k) {
      if (psi[dtmc.col()[k]]) acc += dtmc.val()[k];
    }
    x[s] = acc;
  }
  return x;
}

/// pi P^steps by `steps` scatter multiplies, with no fixed-point exit.
inline std::vector<double> legacyPropagate(const dtmc::ExplicitDtmc& dtmc,
                                           std::vector<double> pi,
                                           std::uint64_t steps) {
  for (std::uint64_t t = 0; t < steps; ++t) {
    pi = legacyScatterLeft(dtmc.matrix(), pi);
  }
  return pi;
}

/// pi . r summed left to right.
inline double legacyDot(const std::vector<double>& pi,
                        const std::vector<double>& reward) {
  double acc = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) acc += pi[s] * reward[s];
  return acc;
}

/// R=?[I=steps]: pi_steps . r from the initial distribution.
inline double legacyInstantaneous(const dtmc::ExplicitDtmc& dtmc,
                                  const std::vector<double>& reward,
                                  std::uint64_t steps) {
  return legacyDot(legacyPropagate(dtmc, dtmc.initialDistribution(), steps),
                   reward);
}

/// R=?[C<=steps]: sum over t < steps of pi_t . r, t ascending.
inline double legacyCumulative(const dtmc::ExplicitDtmc& dtmc,
                               const std::vector<double>& reward,
                               std::uint64_t steps) {
  std::vector<double> pi = dtmc.initialDistribution();
  double total = 0.0;
  for (std::uint64_t t = 0; t < steps; ++t) {
    total += legacyDot(pi, reward);
    pi = legacyScatterLeft(dtmc.matrix(), pi);
  }
  return total;
}

}  // namespace mimostat::test
