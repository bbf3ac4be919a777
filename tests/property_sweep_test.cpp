// Parameterized property-style sweeps over randomly generated DTMCs:
// engine identities and reduction-soundness invariants that must hold for
// every model, not just the hand-picked ones.
#include <gtest/gtest.h>

#include <string>

#include "dtmc/builder.hpp"
#include "legacy_builder.hpp"
#include "legacy_loops.hpp"
#include "lump/bisim.hpp"
#include "mc/checker.hpp"
#include "mc/transient.hpp"
#include "mc/unbounded.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

class RandomChainProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  RandomChainProperties()
      : model_(test::randomModel(35, 3, GetParam())),
        dtmc_(dtmc::buildExplicit(model_).dtmc),
        checker_(dtmc_, model_) {}

  test::MatrixModel model_;
  dtmc::ExplicitDtmc dtmc_;
  mc::Checker checker_;
};

TEST_P(RandomChainProperties, TransientStaysNormalized) {
  mc::TransientSweep sweep(dtmc_);
  for (int t = 0; t < 40; ++t) {
    sweep.advance();
    double total = 0.0;
    for (const double p : sweep.distribution()) total += p;
    ASSERT_NEAR(total, 1.0, 1e-9) << "t=" << t;
  }
}

TEST_P(RandomChainProperties, BoundedFinallyMonotoneAndBounded) {
  double previous = -1.0;
  for (const std::uint64_t k : {0ULL, 1ULL, 3ULL, 6ULL, 12ULL, 24ULL}) {
    const double v =
        checker_.check("P=? [ F<=" + std::to_string(k) + " \"target\" ]")
            .value;
    ASSERT_GE(v, previous - 1e-12);
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0 + 1e-12);
    previous = v;
  }
}

TEST_P(RandomChainProperties, GloballyFinallyComplement) {
  const auto g = checker_.check("P=? [ G<=9 !\"target\" ]").stateValues;
  const auto f = checker_.check("P=? [ F<=9 \"target\" ]").stateValues;
  for (std::size_t s = 0; s < g.size(); ++s) {
    ASSERT_NEAR(g[s] + f[s], 1.0, 1e-10);
  }
}

TEST_P(RandomChainProperties, UnboundedDominatesBounded) {
  const auto psi = dtmc_.evalAtom(model_, "target");
  const auto unbounded = mc::reachProb(dtmc_, psi);
  const auto bounded =
      checker_.check("P=? [ F<=50 \"target\" ]").stateValues;
  for (std::size_t s = 0; s < bounded.size(); ++s) {
    ASSERT_LE(bounded[s], unbounded.stateValues[s] + 1e-9);
  }
}

TEST_P(RandomChainProperties, LumpingPreservesRewardTransients) {
  const auto reward = dtmc_.evalReward(model_, "");
  const auto keys =
      lump::keysFromMasksAndRewards(reward.size(), {}, {&reward});
  const auto lumped = lump::lump(dtmc_, keys);
  std::vector<double> quotientReward(lumped.quotient.numStates());
  for (std::uint32_t b = 0; b < lumped.quotient.numStates(); ++b) {
    quotientReward[b] = reward[lumped.representative[b]];
  }
  for (const std::uint64_t t : {2ULL, 8ULL, 21ULL}) {
    ASSERT_NEAR(test::legacyInstantaneous(dtmc_, reward, t),
                test::legacyInstantaneous(lumped.quotient, quotientReward, t),
                1e-9);
  }
}

TEST_P(RandomChainProperties, SymbolicReachabilityAgrees) {
  // Reachability agrees with the reference BFS (test::legacyBuildExplicit).
  const auto reference = test::legacyBuildExplicit(model_);
  EXPECT_EQ(dtmc_.numStates(), reference.dtmc.numStates());
  EXPECT_EQ(dtmc_.numTransitions(), reference.dtmc.numTransitions());
  EXPECT_EQ(dtmc::buildExplicit(model_).reachabilityIterations,
            reference.reachabilityIterations);
}

TEST_P(RandomChainProperties, Prob0Prob1AreConsistentWithValues) {
  const auto psi = dtmc_.evalAtom(model_, "target");
  const la::BitVector phi(dtmc_.numStates(), true);
  const auto prob0 = mc::prob0States(dtmc_, phi, psi);
  const auto prob1 = mc::prob1States(dtmc_, phi, psi);
  const auto values = mc::reachProb(dtmc_, psi).stateValues;
  for (std::uint32_t s = 0; s < dtmc_.numStates(); ++s) {
    if (prob0.get(s)) {
      ASSERT_NEAR(values[s], 0.0, 1e-12);
    }
    if (prob1.get(s)) {
      ASSERT_NEAR(values[s], 1.0, 1e-12);
    }
    ASSERT_FALSE(prob0.get(s) && prob1.get(s));
  }
}

TEST_P(RandomChainProperties, LumpingIsIdempotent) {
  // Lumping the quotient with the inherited keys must not shrink it
  // further: the first pass already reached the coarsest refinement.
  const auto reward = dtmc_.evalReward(model_, "");
  const auto keys =
      lump::keysFromMasksAndRewards(reward.size(), {}, {&reward});
  const auto once = lump::lump(dtmc_, keys);
  std::vector<double> quotientReward(once.quotient.numStates());
  for (std::uint32_t b = 0; b < once.quotient.numStates(); ++b) {
    quotientReward[b] = reward[once.representative[b]];
  }
  const auto twice = lump::lump(
      once.quotient, lump::keysFromMasksAndRewards(quotientReward.size(), {},
                                                   {&quotientReward}));
  ASSERT_EQ(twice.partition.numBlocks, once.partition.numBlocks);
}

TEST_P(RandomChainProperties, CumulativeRewardIsMonotoneAndConsistent) {
  double previous = 0.0;
  for (const std::uint64_t t : {1ULL, 4ULL, 16ULL, 64ULL}) {
    const double c =
        checker_.check("R=? [ C<=" + std::to_string(t) + " ]").value;
    ASSERT_GE(c, previous - 1e-12);  // nonnegative rewards accumulate
    previous = c;
  }
  // C<=k equals the sum of instantaneous rewards at 0..k-1.
  double manual = 0.0;
  for (std::uint64_t t = 0; t < 8; ++t) {
    manual += checker_.check("R=? [ I=" + std::to_string(t) + " ]").value;
  }
  ASSERT_NEAR(checker_.check("R=? [ C<=8 ]").value, manual, 1e-9);
}

TEST_P(RandomChainProperties, UntilDecomposition) {
  // P(phi U<=k psi) >= P(psi now) and <= P(F<=k psi), for any phi.
  const auto psi = dtmc_.evalAtom(model_, "target");
  const auto until =  // arbitrary restriction
      checker_.check("P=? [ (s<25 & !(s=3) & !(s=7)) U<=12 \"target\" ]")
          .stateValues;
  const auto finallyAll =
      checker_.check("P=? [ F<=12 \"target\" ]").stateValues;
  for (std::uint32_t s = 0; s < dtmc_.numStates(); ++s) {
    ASSERT_GE(until[s], (psi.get(s) ? 1.0 : 0.0) - 1e-12);
    ASSERT_LE(until[s], finallyAll[s] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainProperties,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

}  // namespace
}  // namespace mimostat
