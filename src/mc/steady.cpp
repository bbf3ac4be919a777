#include "mc/steady.hpp"

#include <cassert>
#include <utility>

#include "dtmc/graph.hpp"

namespace mimostat::mc {

ChainStructure analyzeStructure(const dtmc::ExplicitDtmc& dtmc) {
  ChainStructure cs;
  const dtmc::SccDecomposition scc = dtmc::computeSccs(dtmc);
  cs.numSccs = scc.numComponents;
  cs.numBottomSccs = static_cast<std::uint32_t>(scc.bottomComponents.size());
  cs.irreducible = scc.numComponents == 1;
  if (cs.irreducible) cs.period = dtmc::chainPeriod(dtmc);
  return cs;
}

SteadyResult steadyStateDistribution(const dtmc::ExplicitDtmc& dtmc,
                                     const SteadyOptions& options) {
  la::PowerOptions po;
  po.epsilon = options.epsilon;
  po.maxIterations = options.maxIterations;
  la::PowerResult pr = la::PowerIteration{}.run(
      dtmc.matrix(), dtmc.initialDistribution(), po, options.exec);
  SteadyResult result;
  result.distribution = std::move(pr.distribution);
  result.iterations = pr.stats.iterations;
  result.converged = pr.stats.converged;
  result.residual = pr.stats.residual;
  result.solver = std::move(pr.stats.solver);
  return result;
}

double steadyStateReward(const SteadyResult& steady,
                         const std::vector<double>& reward) {
  assert(reward.size() == steady.distribution.size());
  double acc = 0.0;
  for (std::size_t s = 0; s < reward.size(); ++s) {
    acc += steady.distribution[s] * reward[s];
  }
  return acc;
}

}  // namespace mimostat::mc
