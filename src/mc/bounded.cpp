#include "mc/bounded.hpp"

#include <cassert>

#include "la/spmv.hpp"

namespace mimostat::mc {

std::vector<double> boundedUntil(const dtmc::ExplicitDtmc& dtmc,
                                 const la::BitVector& phi,
                                 const la::BitVector& psi, std::uint64_t bound,
                                 const la::Exec& exec) {
  const std::uint32_t n = dtmc.numStates();
  assert(phi.size() == n && psi.size() == n);

  // psi states are frozen at 1.0 and !phi states at 0.0 — their initial
  // values — so the masked product reproduces the classic update
  //   x_{j+1}(s) = psi(s) ? 1 : (phi(s) ? sum P(s,.) x_j : 0)
  // with the identical per-row accumulation order, bit for bit. The frozen
  // set is two word-parallel ops: !phi | psi.
  std::vector<double> x(n, 0.0);
  psi.forEachSetBit([&](std::size_t s) { x[s] = 1.0; });
  std::vector<la::BitVector> frozen(1);
  frozen[0] = ~phi;
  frozen[0] |= psi;
  std::vector<double> next(n);
  for (std::uint64_t j = 0; j < bound; ++j) {
    la::spmmMasked(dtmc.matrix(), x, 1, frozen, next, exec);
    x.swap(next);
  }
  return x;
}

std::vector<double> boundedFinally(const dtmc::ExplicitDtmc& dtmc,
                                   const la::BitVector& psi,
                                   std::uint64_t bound, const la::Exec& exec) {
  const la::BitVector phi(dtmc.numStates(), true);
  return boundedUntil(dtmc, phi, psi, bound, exec);
}

std::vector<double> boundedGlobally(const dtmc::ExplicitDtmc& dtmc,
                                    const la::BitVector& phi,
                                    std::uint64_t bound, const la::Exec& exec) {
  std::vector<double> reach = boundedFinally(dtmc, ~phi, bound, exec);
  for (double& v : reach) v = 1.0 - v;
  return reach;
}

std::vector<double> nextProb(const dtmc::ExplicitDtmc& dtmc,
                             const la::BitVector& psi, const la::Exec& exec) {
  const std::uint32_t n = dtmc.numStates();
  assert(psi.size() == n);
  // One unmasked propagation of the psi indicator. The legacy loop summed
  // val[k] over psi columns only; val * 1.0 is exact and the interleaved
  // val * 0.0 terms are bitwise-neutral (+0.0 into a non-negative
  // accumulator), so the gather is bit-identical to the skip loop.
  std::vector<double> x(n, 0.0);
  psi.forEachSetBit([&](std::size_t s) { x[s] = 1.0; });
  std::vector<double> y;
  la::spmv(dtmc.matrix(), x, y, exec);
  return y;
}

double fromInitial(const dtmc::ExplicitDtmc& dtmc,
                   const std::vector<double>& stateValues) {
  const auto& init = dtmc.initialDistribution();
  assert(stateValues.size() == init.size());
  double acc = 0.0;
  for (std::size_t s = 0; s < init.size(); ++s) {
    if (init[s] > 0.0) acc += init[s] * stateValues[s];
  }
  return acc;
}

}  // namespace mimostat::mc
