// The central soundness tests of the reproduction: the reduced Viterbi
// model M_R is a probabilistic bisimulation of the full model M for the
// error properties (paper §IV-A-3/4).
#include <gtest/gtest.h>

#include "core_reduction.hpp"
#include "dtmc/builder.hpp"
#include "mc/checker.hpp"
#include "test_models.hpp"
#include "viterbi/fabs.hpp"
#include "viterbi/model_full.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

viterbi::ViterbiParams smallParams(int traceLength, bool withErrs = false) {
  viterbi::ViterbiParams p;
  p.tracebackLength = traceLength;
  p.quantLevels = 4;
  p.pmCap = 4;
  p.withErrorCounter = withErrs;
  return p;
}

TEST(ViterbiModels, RowsAreStochastic) {
  const viterbi::FullViterbiModel full(smallParams(3));
  const viterbi::ReducedViterbiModel reduced(smallParams(3));
  EXPECT_LT(test::maxRowDeviation(dtmc::buildExplicit(full).dtmc), 1e-12);
  EXPECT_LT(test::maxRowDeviation(dtmc::buildExplicit(reduced).dtmc),
            1e-12);
}

TEST(ViterbiModels, ReductionShrinksStateSpace) {
  for (const int L : {3, 4, 5}) {
    const viterbi::FullViterbiModel full(smallParams(L));
    const viterbi::ReducedViterbiModel reduced(smallParams(L));
    const auto fullStates = dtmc::buildExplicit(full).dtmc.numStates();
    const auto reducedStates = dtmc::buildExplicit(reduced).dtmc.numStates();
    EXPECT_LT(reducedStates, fullStates) << "L=" << L;
  }
}

TEST(ViterbiModels, ErrorPropertiesPreserved) {
  // P1/P2 equal on M and M_R — the paper's bisimulation claim, checked
  // end-to-end for small traceback lengths.
  for (const int L : {2, 3, 4}) {
    const viterbi::FullViterbiModel full(smallParams(L));
    const viterbi::ReducedViterbiModel reduced(smallParams(L));
    const auto verdict = core::verifyReduction(
        full, reduced,
        {"P=? [ G<=25 !flag ]", "R=? [ I=25 ]", "R=? [ C<=25 ]",
         "P=? [ F<=10 flag ]"},
        nullptr, 1e-10);
    EXPECT_TRUE(verdict.propertiesPreserved)
        << "L=" << L << " worst diff " << verdict.worstPropertyDiff;
  }
}

TEST(ViterbiModels, WorstCasePropertyPreservedWithErrorCounter) {
  const viterbi::FullViterbiModel full(smallParams(3, true));
  const viterbi::ReducedViterbiModel reduced(smallParams(3, true));
  const auto verdict = core::verifyReduction(
      full, reduced, {"P=? [ F<=20 errs>1 ]", "P=? [ F<=20 errs>0 ]"},
      nullptr, 1e-10);
  EXPECT_TRUE(verdict.propertiesPreserved) << verdict.worstPropertyDiff;
}

TEST(ViterbiModels, AbstractionInducesLumpablePartition) {
  // The strong-lumping argument itself: the partition of M induced by
  // F_abs must be lumpable (Eq. 12), verified numerically.
  const auto params = smallParams(3);
  const viterbi::FullViterbiModel full(params);
  const viterbi::ReducedViterbiModel reduced(params);
  const auto verdict = core::verifyReduction(
      full, reduced, {"R=? [ I=10 ]"},
      [&](const dtmc::State& s) {
        return viterbi::abstractState(full, reduced, s);
      },
      1e-10);
  EXPECT_TRUE(verdict.partitionLumpable) << verdict.worstLumpMismatch;
  EXPECT_TRUE(verdict.sound());
  EXPECT_GT(verdict.reductionFactor(), 1.0);
}

TEST(ViterbiModels, AbstractionMapsInitialStates) {
  const auto params = smallParams(4);
  const viterbi::FullViterbiModel full(params);
  const viterbi::ReducedViterbiModel reduced(params);
  const auto fullInit = full.initialStates();
  const auto reducedInit = reduced.initialStates();
  ASSERT_EQ(fullInit.size(), 1u);
  ASSERT_EQ(reducedInit.size(), 1u);
  EXPECT_EQ(viterbi::abstractState(full, reduced, fullInit[0]),
            reducedInit[0]);
}

TEST(FlagEquivalence, HoldsForAllTracebackLengths) {
  // The paper's "Part A" (Eq. 5 == Eq. 9), discharged exhaustively — our
  // substitute for the Synopsys Formality equivalence check.
  for (const int L : {2, 3, 4, 5, 6, 7}) {
    const auto report = viterbi::verifyFlagEquivalence(L);
    EXPECT_TRUE(report.equivalent) << "L=" << L;
    const auto expected = 2ULL * (1ULL << L) * (1ULL << (2 * (L - 1)));
    EXPECT_EQ(report.assignmentsChecked, expected);
  }
}

TEST(ViterbiModels, PaperScaleReducedModelBuilds) {
  // The L=6 configuration used for Table I (reduced model only).
  const viterbi::ReducedViterbiModel reduced(viterbi::ViterbiParams{});
  const auto result = dtmc::buildExplicit(reduced);
  EXPECT_GT(result.dtmc.numStates(), 1000u);
  EXPECT_LT(test::maxRowDeviation(result.dtmc), 1e-12);
  // BER at SNR 5 dB with this coarse quantizer is substantial (the paper's
  // "poor performance" conclusion) — sanity-band the P2 value.
  const mc::Checker checker(result.dtmc, reduced);
  const double p2 = checker.check("R=? [ I=300 ]").value;
  EXPECT_GT(p2, 0.01);
  EXPECT_LT(p2, 0.5);
}

TEST(ViterbiModels, BestCaseDecaysWithHorizon) {
  const viterbi::ReducedViterbiModel reduced(smallParams(3));
  const auto d = dtmc::buildExplicit(reduced).dtmc;
  const mc::Checker checker(d, reduced);
  const double p1Short = checker.check("P=? [ G<=10 !flag ]").value;
  const double p1Long = checker.check("P=? [ G<=100 !flag ]").value;
  EXPECT_LT(p1Long, p1Short);
  EXPECT_GE(p1Long, 0.0);
}

TEST(ViterbiModels, ErrorCounterSaturates) {
  const viterbi::ReducedViterbiModel reduced(smallParams(3, true));
  const auto d = dtmc::buildExplicit(reduced).dtmc;
  const auto errsIdx = d.varLayout().indexOf("errs");
  const auto cap = reduced.params().errorThreshold + 1;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    EXPECT_LE(d.varValue(s, errsIdx), cap);
  }
}

TEST(ViterbiModels, CountReachableAgreesWithBuilder) {
  const viterbi::FullViterbiModel full(smallParams(4));
  const auto built = dtmc::buildExplicit(full);
  const auto counted = dtmc::countReachable(full);
  EXPECT_EQ(counted.numStates, built.dtmc.numStates());
  EXPECT_EQ(counted.reachabilityIterations, built.reachabilityIterations);
}

}  // namespace
}  // namespace mimostat
