#include "mc/steady.hpp"

#include <cassert>

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

la::PowerResult steadyStateDistribution(const dtmc::ExplicitDtmc& dtmc,
                                        const la::Exec& exec) {
  return la::PowerIteration{}.run(dtmc.matrix(), dtmc.initialDistribution(),
                                  la::PowerOptions{}, exec);
}

double steadyStateReward(const la::PowerResult& steady,
                         const std::vector<double>& reward) {
  assert(reward.size() == steady.distribution.size());
  double acc = 0.0;
  for (std::size_t s = 0; s < reward.size(); ++s) {
    acc += steady.distribution[s] * reward[s];
  }
  return acc;
}

}  // namespace mimostat::mc
