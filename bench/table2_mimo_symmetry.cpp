// Table II reproduction: symmetry reduction of the MIMO ML detector.
//
// Paper:
//   1x2 (SNR  8 dB): 569,480 -> 32,088 states, factor 18
//   1x4 (SNR 12 dB): 524,288 ->  1,320 states, factor 400
//
// Our quantizer widths (README, "Fidelity against the paper") are chosen so
// the factors land in the same regime: the 2*Nr interchangeable metric
// blocks give a combinatorial reduction that grows steeply with Nr.
#include <cstdio>

#include "dtmc/builder.hpp"
#include "lump/symmetry.hpp"
#include "mimo/model.hpp"
#include "util/timer.hpp"

namespace {

void runCase(const char* name, const mimostat::mimo::MimoParams& params) {
  using namespace mimostat;

  const mimo::MimoDetectorModel model(params);
  const lump::SymmetryReducedModel reduced(model, model.symmetryBlocks());

  util::Stopwatch fullTimer;
  const auto full = dtmc::buildExplicit(model);
  const double fullSeconds = fullTimer.elapsedSeconds();

  util::Stopwatch reducedTimer;
  const auto quotient = dtmc::buildExplicit(reduced);
  const double reducedSeconds = reducedTimer.elapsedSeconds();

  const bool symmetric = reduced.verifySymmetry({"error"}, 200, 42);

  const double factor = static_cast<double>(full.dtmc.numStates()) /
                        quotient.dtmc.numStates();
  std::printf("%-4s %14u %16u %10.0f %10.2f %10.2f  symmetry:%s\n", name,
              full.dtmc.numStates(), quotient.dtmc.numStates(), factor,
              fullSeconds, reducedSeconds, symmetric ? "PASS" : "FAIL");
}

}  // namespace

int main() {
  std::printf("=== Table II: Symmetry reduction of MIMO detector ===\n");
  std::printf("(paper: 1x2 569480->32088 factor 18; "
              "1x4 524288->1320 factor 400)\n\n");
  std::printf("%-4s %14s %16s %10s %10s %10s\n", "MIMO", "States (M)",
              "States (M_R)", "Factor", "t_M (s)", "t_MR (s)");
  runCase("1x2", mimostat::mimo::mimo1x2Params());
  runCase("1x4", mimostat::mimo::mimo1x4Params());
  return 0;
}
