// Ablation study of two reduction choices on the Viterbi error model:
//   1. Hand (domain-specific) reduction vs generic bisimulation lumping vs
//      no reduction.
//   2. Probability-floor (PRISM's 1e-15 discard) effect on model size.
// Shapes: the hand reduction dominates the full model and preserves P2;
// the floor leaves the reduced model unchanged at every setting.
#include <cmath>
#include <cstdio>

#include "dtmc/builder.hpp"
#include "lump/bisim.hpp"
#include "mc/checker.hpp"
#include "util/timer.hpp"
#include "viterbi/model_full.hpp"
#include "viterbi/model_reduced.hpp"

int main() {
  using namespace mimostat;

  std::printf("=== Ablation 1: reduction strategies (Viterbi, L=4) ===\n\n");
  viterbi::ViterbiParams params;
  params.tracebackLength = 4;  // keeps the *full* model buildable

  const viterbi::FullViterbiModel fullModel(params);
  const viterbi::ReducedViterbiModel reducedModel(params);

  util::Stopwatch fullTimer;
  const auto full = dtmc::buildExplicit(fullModel);
  const double fullBuild = fullTimer.elapsedSeconds();
  const mc::Checker fullChecker(full.dtmc, fullModel);
  util::Stopwatch fullCheckTimer;
  const double fullP2 = fullChecker.check("R=? [ I=100 ]").value;
  const double fullCheck = fullCheckTimer.elapsedSeconds();

  util::Stopwatch reducedTimer;
  const auto reduced = dtmc::buildExplicit(reducedModel);
  const double reducedBuild = reducedTimer.elapsedSeconds();
  const mc::Checker reducedChecker(reduced.dtmc, reducedModel);
  util::Stopwatch reducedCheckTimer;
  const double reducedP2 = reducedChecker.check("R=? [ I=100 ]").value;
  const double reducedCheck = reducedCheckTimer.elapsedSeconds();

  // Generic lumping on the full model, keyed by the reward (flag).
  util::Stopwatch lumpTimer;
  const auto reward = full.dtmc.evalReward(fullModel, "");
  const auto lumped =
      lump::lump(full.dtmc,
                 lump::keysFromMasksAndRewards(reward.size(), {}, {&reward}));
  const double lumpSeconds = lumpTimer.elapsedSeconds();

  std::printf("%-28s %10s %12s %12s %14s\n", "Strategy", "States",
              "build(s)", "check(s)", "P2(T=100)");
  std::printf("%-28s %10u %12.2f %12.3f %14.8f\n", "none (full model M)",
              full.dtmc.numStates(), fullBuild, fullCheck, fullP2);
  std::printf("%-28s %10u %12.2f %12.3f %14.8f\n", "hand reduction (M_R)",
              reduced.dtmc.numStates(), reducedBuild, reducedCheck, reducedP2);
  std::printf("%-28s %10u %12.2f %12s %14s\n", "generic lumping of M",
              lumped.partition.numBlocks, lumpSeconds, "-", "-");
  std::printf("\nP2 preserved by hand reduction: %s (|diff| = %.2e)\n",
              std::abs(fullP2 - reducedP2) < 1e-10 ? "yes" : "NO",
              std::abs(fullP2 - reducedP2));
  std::printf("Generic lumping vs hand reduction block count: %u vs %u\n",
              lumped.partition.numBlocks, reduced.dtmc.numStates());

  std::printf("\n=== Ablation 2: probability floor (PRISM 1e-15 discard) "
              "===\n\n");
  for (const double floor : {0.0, 1e-15, 1e-9, 1e-6}) {
    dtmc::BuildOptions options;
    options.probFloor = floor;
    const auto result = dtmc::buildExplicit(reducedModel, options);
    const mc::Checker checker(result.dtmc, reducedModel);
    std::printf("  floor=%-8.0e states=%-8u transitions=%-9llu "
                "P2(T=100)=%.8f\n",
                floor, result.dtmc.numStates(),
                static_cast<unsigned long long>(result.dtmc.numTransitions()),
                checker.check("R=? [ I=100 ]").value);
  }
  return 0;
}
