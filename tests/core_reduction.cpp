#include "core_reduction.hpp"

#include <algorithm>
#include <unordered_map>

#include "test_models.hpp"

namespace mimostat::core {

ReductionVerdict verifyReduction(const dtmc::Model& fullModel,
                                 const dtmc::Model& reducedModel,
                                 const std::vector<std::string>& properties,
                                 const AbstractionFn& abstraction,
                                 double tolerance,
                                 const dtmc::BuildOptions& buildOptions) {
  const dtmc::BuildResult full = dtmc::buildExplicit(fullModel, buildOptions);
  const dtmc::BuildResult reduced =
      dtmc::buildExplicit(reducedModel, buildOptions);

  ReductionVerdict verdict;
  verdict.fullStates = full.dtmc.numStates();
  verdict.reducedStates = reduced.dtmc.numStates();

  verdict.comparisons = lump::compareProperties(
      full.dtmc, fullModel, reduced.dtmc, reducedModel, properties);
  for (const auto& cmp : verdict.comparisons) {
    verdict.worstPropertyDiff =
        std::max(verdict.worstPropertyDiff, cmp.absDiff);
  }
  verdict.propertiesPreserved = verdict.worstPropertyDiff <= tolerance;

  if (abstraction) {
    // Partition of the full state space induced by F_abs.
    std::unordered_map<dtmc::State, std::uint32_t, test::StateHash> blockIds;
    // lint:allow(reduction-boundary: builds the partition handed to lump::)
    std::vector<std::uint32_t> blockOf(full.dtmc.numStates());
    for (std::uint32_t s = 0; s < full.dtmc.numStates(); ++s) {
      const dtmc::State abstracted = abstraction(full.dtmc.state(s));
      auto [it, inserted] = blockIds.try_emplace(
          abstracted, static_cast<std::uint32_t>(blockIds.size()));
      // lint:allow(reduction-boundary: builds the partition handed to lump::)
      blockOf[s] = it->second;
    }
    // lint:allow(reduction-boundary: builds the partition handed to lump::)
    const lump::Partition partition = lump::partitionFromMap(blockOf);
    const lump::LumpabilityReport report =
        lump::verifyLumpable(full.dtmc, partition, tolerance);
    verdict.partitionLumpable = report.lumpable;
    verdict.worstLumpMismatch = report.worstMismatch;
  }
  return verdict;
}

}  // namespace mimostat::core
