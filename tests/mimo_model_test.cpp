#include <gtest/gtest.h>

#include <stdexcept>

#include "dtmc/builder.hpp"
#include "lump/symmetry.hpp"
#include "mc/checker.hpp"
#include "mimo/model.hpp"
#include "mimo/sim.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

/// A small configuration so the full (unreduced) model stays test-sized.
mimo::MimoParams tinyParams() {
  mimo::MimoParams p;
  p.nr = 2;
  p.snrDb = 6.0;
  p.hLevels = 2;
  p.hRange = 1.2;
  p.yLevels = 3;
  p.yRange = 1.8;
  return p;
}

TEST(MimoModel, RejectsParametersItCannotModel) {
  // Nt = 2 would read numChannelParts() = 2 * numBlocks() h cells from
  // rows that hold numBlocks() of them.
  mimo::MimoParams twoStreams = mimo::mimo1x2Params();  // the 2x2 system
  twoStreams.nt = 2;
  EXPECT_THROW(mimo::MimoDetectorModel{twoStreams}, std::invalid_argument);
  mimo::MimoParams wide = tinyParams();
  wide.nr = mimo::MlDetector::kMaxBlocks + 1;  // the detector's bound
  EXPECT_THROW(mimo::MimoDetectorModel{wide}, std::invalid_argument);
  EXPECT_NO_THROW(mimo::MimoDetectorModel{mimo::mimo1x2Params()});
  EXPECT_NO_THROW(mimo::MimoDetectorModel{mimo::mimo1x4Params()});
}

TEST(MimoModel, RowsAreStochastic) {
  const mimo::MimoDetectorModel model(tinyParams());
  const auto result = dtmc::buildExplicit(model);
  EXPECT_LT(test::maxRowDeviation(result.dtmc), 1e-12);
}

TEST(MimoModel, ReachabilityFixpointIsFast) {
  // The 3-phase pipeline mixes almost immediately — the structural reason
  // for the paper's RI=3.
  const mimo::MimoDetectorModel model(tinyParams());
  const auto result = dtmc::buildExplicit(model);
  EXPECT_LE(result.reachabilityIterations, 5u);
}

TEST(MimoModel, PhaseStructure) {
  const mimo::MimoDetectorModel model(tinyParams());
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto phaseIdx = d.varLayout().indexOf("phase");
  // Every transition advances the phase cyclically.
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    const auto phase = d.varValue(s, phaseIdx);
    for (std::uint64_t k = d.rowPtr()[s]; k < d.rowPtr()[s + 1]; ++k) {
      EXPECT_EQ(d.varValue(d.col()[k], phaseIdx), (phase + 1) % 3);
    }
  }
}

TEST(MimoModel, InstantaneousRewardIsBerForAnyLateT) {
  // flag is sticky, so R=?[I=T] is T-independent once the pipeline has
  // completed a cycle (Table V's near-constant rows).
  const mimo::MimoDetectorModel model(tinyParams());
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const double t5 = checker.check("R=? [ I=5 ]").value;
  const double t10 = checker.check("R=? [ I=10 ]").value;
  const double t20 = checker.check("R=? [ I=20 ]").value;
  EXPECT_NEAR(t5, t10, 1e-12);
  EXPECT_NEAR(t10, t20, 1e-12);
  EXPECT_GT(t5, 0.0);
  EXPECT_LT(t5, 0.5);
}

TEST(MimoModel, SymmetryReductionPreservesBer) {
  const mimo::MimoDetectorModel model(tinyParams());
  const lump::SymmetryReducedModel reduced(model, model.symmetryBlocks());
  const auto full = dtmc::buildExplicit(model);
  const auto quotient = dtmc::buildExplicit(reduced);

  EXPECT_LT(quotient.dtmc.numStates(), full.dtmc.numStates());

  const mc::Checker fullChecker(full.dtmc, model);
  const mc::Checker quotientChecker(quotient.dtmc, reduced);
  for (const auto* prop : {"R=? [ I=5 ]", "R=? [ I=11 ]",
                           "P=? [ F<=9 flag ]", "P=? [ G<=9 !flag ]"}) {
    EXPECT_NEAR(fullChecker.check(prop).value,
                quotientChecker.check(prop).value, 1e-11)
        << prop;
  }
}

TEST(MimoModel, SymmetryVerifierAcceptsDetector) {
  const mimo::MimoDetectorModel model(tinyParams());
  const lump::SymmetryReducedModel reduced(model, model.symmetryBlocks());
  EXPECT_TRUE(reduced.verifySymmetry({"error"}, 100, 3));
}

TEST(MimoModel, ReductionFactorGrowsWithAntennas) {
  // Table II's trend: the 2*Nr-block symmetry saves more for more antennas.
  auto small = tinyParams();
  small.nr = 1;
  auto large = tinyParams();
  large.nr = 3;
  large.yLevels = 2;  // keep the full model buildable

  const mimo::MimoDetectorModel smallModel(small);
  const mimo::MimoDetectorModel largeModel(large);
  const lump::SymmetryReducedModel smallReduced(smallModel,
                                                smallModel.symmetryBlocks());
  const lump::SymmetryReducedModel largeReduced(largeModel,
                                                largeModel.symmetryBlocks());

  const double factorSmall =
      static_cast<double>(dtmc::buildExplicit(smallModel).dtmc.numStates()) /
      dtmc::buildExplicit(smallReduced).dtmc.numStates();
  const double factorLarge =
      static_cast<double>(dtmc::buildExplicit(largeModel).dtmc.numStates()) /
      dtmc::buildExplicit(largeReduced).dtmc.numStates();
  EXPECT_GT(factorLarge, factorSmall);
}

TEST(MimoModel, BerMatchesQuantizedSimulation) {
  const auto params = tinyParams();
  const mimo::MimoDetectorModel model(params);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const double modelBer = checker.check("R=? [ I=8 ]").value;
  const auto sim = mimo::simulateQuantized(params, 400000, 77);
  const auto interval = sim.bitErrors.wilson(0.99);
  EXPECT_TRUE(interval.contains(modelBer))
      << "model " << modelBer << " sim [" << interval.low << ", "
      << interval.high << "]";
}

TEST(MimoModel, HigherSnrLowersBer) {
  // Note: with very coarse quantizers BER is not globally monotone in SNR
  // (the noise can push samples into informative cells — a real fixed-point
  // artifact this methodology exists to expose). Compare well-separated
  // SNRs in the noise-dominated regime where monotonicity does hold.
  auto low = tinyParams();
  low.snrDb = 0.0;
  auto high = tinyParams();
  high.snrDb = 10.0;
  const mimo::MimoDetectorModel lowModel(low);
  const mimo::MimoDetectorModel highModel(high);
  const auto lowD = dtmc::buildExplicit(lowModel).dtmc;
  const auto highD = dtmc::buildExplicit(highModel).dtmc;
  const double lowBer = mc::Checker(lowD, lowModel).check("R=? [ I=6 ]").value;
  const double highBer =
      mc::Checker(highD, highModel).check("R=? [ I=6 ]").value;
  EXPECT_LT(highBer, lowBer);
}

TEST(MimoModel, ErrorAtomMatchesFlagVariable) {
  const mimo::MimoDetectorModel model(tinyParams());
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto truth = d.evalAtom(model, "error");
  const auto flagIdx = d.varLayout().indexOf("flag");
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    EXPECT_EQ(truth.get(s), d.varValue(s, flagIdx) == 1);
  }
}

}  // namespace
}  // namespace mimostat
