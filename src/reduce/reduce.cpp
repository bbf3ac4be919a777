#include "reduce/reduce.hpp"

#include <string>
#include <utility>

#include "lump/bisim.hpp"
#include "obs/trace.hpp"

namespace mimostat::reduce {

namespace {

/// kAuto quotients models of at least this many states whatever the plan.
constexpr std::uint64_t kAutoMinStates = 100'000;
/// ...and plans of at least this many matrix passes whatever the size.
constexpr std::uint64_t kAutoMinPlanPasses = 256;
/// Elimination answers on quotients of at most this many states.
constexpr std::uint64_t kEliminationMaxStates = 50'000;

}  // namespace

std::uint64_t planPasses(const pctl::EvalPlan& plan) {
  return plan.boundedSteps() * plan.columns.size() + plan.transientSteps();
}

bool quotientSelected(const Options& options, std::uint64_t numStates,
                      std::uint64_t planPasses) {
  switch (options.quotient) {
    case Toggle::kOn:
      return true;
    case Toggle::kOff:
      return false;
    case Toggle::kAuto:
      return numStates >= kAutoMinStates || planPasses >= kAutoMinPlanPasses;
  }
  return false;
}

std::string quotientAutoSkipReason(std::uint64_t numStates,
                                   std::uint64_t planPasses) {
  return "auto: " + std::to_string(numStates) + " states < " +
         std::to_string(kAutoMinStates) + ", " + std::to_string(planPasses) +
         " plan passes < " + std::to_string(kAutoMinPlanPasses);
}

bool eliminationSelected(bool quotientApplied, std::uint64_t quotientStates) {
  return quotientApplied && quotientStates <= kEliminationMaxStates;
}

ReducedModel buildQuotient(const dtmc::ExplicitDtmc& dtmc,
                           const std::vector<const la::BitVector*>& masks,
                           const std::vector<const std::vector<double>*>& rewards,
                           const la::TaskRunner& runner) {
  obs::Span span("reduce.quotient");
  const lump::InitialKeys keys =
      lump::keysFromMasksAndRewards(dtmc.numStates(), masks, rewards, runner);
  lump::LumpResult lumped = lump::lump(dtmc, keys, {}, runner);

  ReducedModel reduced;
  reduced.info.blockOf = std::move(lumped.partition.blockOf);
  reduced.info.representative = std::move(lumped.representative);
  reduced.info.statesBefore = dtmc.numStates();
  reduced.info.statesAfter = lumped.partition.numBlocks;
  reduced.info.transitionsBefore = dtmc.numTransitions();
  reduced.info.transitionsAfter = lumped.quotient.numTransitions();
  reduced.info.refinementRounds = lumped.refinementRounds;
  reduced.quotient = std::move(lumped.quotient);
  reduced.info.seconds = span.stopSeconds();
  return reduced;
}

void shrinkToMarker(ReductionInfo& info) {
  info.blockOf.clear();
  info.blockOf.shrink_to_fit();
  info.representative.clear();
  info.representative.shrink_to_fit();
}

}  // namespace mimostat::reduce
