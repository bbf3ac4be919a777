#include <gtest/gtest.h>

#include <cmath>

#include "dtmc/builder.hpp"
#include "mc/steady.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

TEST(Steady, TwoStateStationary) {
  const double a = 0.3;
  const double b = 0.2;
  const auto model = test::twoStateChain(a, b);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto ss = mc::steadyStateDistribution(d);
  EXPECT_TRUE(ss.stats.converged);
  EXPECT_NEAR(ss.distribution[0], b / (a + b), 1e-10);
  EXPECT_NEAR(ss.distribution[1], a / (a + b), 1e-10);
}

TEST(Steady, BirthDeathGeometric) {
  // Birth-death chain on 0..4 with up-prob p, down-prob q has stationary
  // pi_i ~ (p/q)^i.
  const double p = 0.3;
  const double q = 0.5;
  std::vector<std::vector<double>> matrix(5, std::vector<double>(5, 0.0));
  for (int i = 0; i < 5; ++i) {
    if (i < 4) matrix[i][i + 1] = p;
    if (i > 0) matrix[i][i - 1] = q;
    matrix[i][i] = 1.0 - (i < 4 ? p : 0.0) - (i > 0 ? q : 0.0);
  }
  test::MatrixModel model(std::move(matrix));
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto ss = mc::steadyStateDistribution(d);
  ASSERT_TRUE(ss.stats.converged);
  const double r = p / q;
  double z = 0.0;
  for (int i = 0; i < 5; ++i) z += std::pow(r, i);
  const auto varIdx = d.varLayout().indexOf("s");
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    const auto i = d.varValue(s, varIdx);
    EXPECT_NEAR(ss.distribution[s], std::pow(r, i) / z, 1e-9);
  }
}

TEST(Steady, RewardMatchesDistributionDot) {
  const auto model = test::twoStateChain(0.4, 0.1);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const std::vector<double> reward{0.0, 1.0};
  EXPECT_NEAR(mc::steadyStateReward(mc::steadyStateDistribution(d), reward),
              0.4 / 0.5, 1e-9);
}

TEST(Steady, StructureOfIrreducibleAperiodicChain) {
  const auto model = test::twoStateChain(0.3, 0.4);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto cs = mc::analyzeStructure(d);
  EXPECT_TRUE(cs.irreducible);
  EXPECT_EQ(cs.period, 1u);
  EXPECT_EQ(cs.numSccs, 1u);
  EXPECT_EQ(cs.numBottomSccs, 1u);
}

TEST(Steady, StructureOfPeriodicChain) {
  const auto model = test::cycleModel(3);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto cs = mc::analyzeStructure(d);
  EXPECT_TRUE(cs.irreducible);
  EXPECT_EQ(cs.period, 3u);
}

TEST(Steady, StructureOfAbsorbingChain) {
  const auto model = test::gamblersRuin(4, 0.5, 2);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto cs = mc::analyzeStructure(d);
  EXPECT_FALSE(cs.irreducible);
  EXPECT_EQ(cs.numBottomSccs, 2u);
}

}  // namespace
}  // namespace mimostat
