#include "mc/unbounded.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "reduce/eliminate.hpp"

namespace mimostat::mc {

namespace {

/// Backward closure: all states reaching a seed state through edges whose
/// source satisfies `allowed` (seeds count regardless). Walks the matrix's
/// cached stable transpose — row j lists j's predecessors in ascending
/// order, so the BFS queue order matches the legacy hand-built transpose.
la::BitVector backwardClosure(const dtmc::ExplicitDtmc& dtmc,
                              la::BitVector seeds,
                              const la::BitVector& allowed) {
  const la::CsrMatrix& back = dtmc.matrix().transposed();
  std::vector<std::uint32_t> queue;
  // forEachSetBit is ascending, matching the legacy byte-vector seed scan.
  seeds.forEachSetBit(
      [&](std::size_t s) { queue.push_back(static_cast<std::uint32_t>(s)); });
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t v = queue[head];
    for (std::uint64_t k = back.rowPtr()[v]; k < back.rowPtr()[v + 1]; ++k) {
      const std::uint32_t u = back.col()[k];
      if (!seeds.get(u) && allowed.get(u)) {
        seeds.set(u);
        queue.push_back(u);
      }
    }
  }
  return seeds;
}

}  // namespace

la::BitVector prob0States(const dtmc::ExplicitDtmc& dtmc,
                          const la::BitVector& phi, const la::BitVector& psi) {
  // canReach[s] = s can reach psi via phi-states; prob0 is the complement.
  return ~backwardClosure(dtmc, psi, phi);
}

namespace {

/// prob1States against an already-computed prob0 set — callers that need
/// both sets (untilProb) pay the prob0 backward walk once, not twice.
la::BitVector prob1FromProb0(const dtmc::ExplicitDtmc& dtmc,
                             const la::BitVector& phi, const la::BitVector& psi,
                             la::BitVector prob0) {
  // Complement fixpoint (Baier & Katoen Alg. 46): states with P < 1 are the
  // backward closure of prob0 through "phi and not psi" states (psi states
  // never leave psi-satisfaction; non-phi non-psi states are already prob0).
  la::BitVector phiNotPsi(phi);
  phiNotPsi -= psi;
  return ~backwardClosure(dtmc, std::move(prob0), phiNotPsi);
}

}  // namespace

la::BitVector prob1States(const dtmc::ExplicitDtmc& dtmc,
                          const la::BitVector& phi, const la::BitVector& psi) {
  return prob1FromProb0(dtmc, phi, psi, prob0States(dtmc, phi, psi));
}

ReachResult untilProb(const dtmc::ExplicitDtmc& dtmc, const la::BitVector& phi,
                      const la::BitVector& psi) {
  const std::uint32_t n = dtmc.numStates();
  assert(phi.size() == n && psi.size() == n);

  const la::BitVector prob0 = prob0States(dtmc, phi, psi);
  const la::BitVector prob1 = prob1FromProb0(dtmc, phi, psi, prob0);

  ReachResult result;
  result.stateValues.assign(n, 0.0);
  prob1.forEachSetBit([&](std::size_t s) { result.stateValues[s] = 1.0; });

  // x = P x on the undetermined states (prob0/prob1 rows fixed).
  std::vector<std::uint32_t> undetermined;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (!prob0.get(s) && !prob1.get(s)) undetermined.push_back(s);
  }
  if (undetermined.empty()) return result;

  result.solver = la::gaussSeidel(dtmc.matrix(), undetermined, nullptr,
                                  result.stateValues);
  return result;
}

ReachResult reachProb(const dtmc::ExplicitDtmc& dtmc,
                      const la::BitVector& psi) {
  const la::BitVector phi(dtmc.numStates(), true);
  return untilProb(dtmc, phi, psi);
}

ReachResult expectedReachReward(const dtmc::ExplicitDtmc& dtmc,
                                const std::vector<double>& reward,
                                const la::BitVector& psi) {
  const std::uint32_t n = dtmc.numStates();
  assert(reward.size() == n && psi.size() == n);

  const la::BitVector phi(n, true);
  const la::BitVector prob1 = prob1States(dtmc, phi, psi);

  ReachResult result;
  result.stateValues.assign(n, 0.0);
  std::vector<std::uint32_t> active;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (psi.get(s)) {
      result.stateValues[s] = 0.0;  // accumulate nothing once reached
    } else if (!prob1.get(s)) {
      result.stateValues[s] = std::numeric_limits<double>::infinity();
    } else {
      active.push_back(s);
    }
  }
  if (active.empty()) return result;

  // x(s) = r(s) + sum_t P(s,t) x(t), target states fixed at 0. Infinite
  // neighbours propagate naturally through the sum.
  result.solver =
      la::gaussSeidel(dtmc.matrix(), active, reward.data(), result.stateValues);
  return result;
}

namespace {

/// Exact elimination answer; no report when precomputation answered every
/// state, matching the iterative paths.
ReachResult eliminationResult(reduce::EliminationResult elim) {
  ReachResult result;
  result.stateValues = std::move(elim.stateValues);
  if (elim.eliminated > 0) {
    result.solver = la::SolveStats{elim.eliminated, 0.0, true, "elimination"};
  }
  return result;
}

}  // namespace

ReachResult untilProbByElimination(const dtmc::ExplicitDtmc& dtmc,
                                   const la::BitVector& phi,
                                   const la::BitVector& psi) {
  assert(phi.size() == dtmc.numStates() && psi.size() == dtmc.numStates());
  const la::BitVector prob0 = prob0States(dtmc, phi, psi);
  const la::BitVector prob1 = prob1FromProb0(dtmc, phi, psi, prob0);

  return eliminationResult(reduce::eliminateUntilProb(dtmc, prob0, prob1));
}

ReachResult reachProbByElimination(const dtmc::ExplicitDtmc& dtmc,
                                   const la::BitVector& psi) {
  const la::BitVector phi(dtmc.numStates(), true);
  return untilProbByElimination(dtmc, phi, psi);
}

ReachResult expectedReachRewardByElimination(const dtmc::ExplicitDtmc& dtmc,
                                             const std::vector<double>& reward,
                                             const la::BitVector& psi) {
  const std::uint32_t n = dtmc.numStates();
  assert(reward.size() == n && psi.size() == n);
  const la::BitVector phi(n, true);
  const la::BitVector reachesPsi = prob1States(dtmc, phi, psi);

  return eliminationResult(
      reduce::eliminateReachReward(dtmc, reward, psi, reachesPsi));
}

}  // namespace mimostat::mc
