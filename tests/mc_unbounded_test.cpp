#include <gtest/gtest.h>

#include <cmath>

#include "dtmc/builder.hpp"
#include "mc/checker.hpp"
#include "mc/unbounded.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

TEST(Unbounded, FairGamblersRuinClosedForm) {
  // P(hit n before 0 | start i) = i/n for a fair game.
  const std::uint32_t n = 8;
  for (const std::uint32_t start : {1u, 3u, 5u, 7u}) {
    const auto model = test::gamblersRuin(n, 0.5, start);
    const auto d = dtmc::buildExplicit(model).dtmc;
    const auto varIdx = d.varLayout().indexOf("s");
    la::BitVector win(d.numStates());
    for (std::uint32_t s = 0; s < d.numStates(); ++s) {
      if (d.varValue(s, varIdx) == static_cast<std::int32_t>(n)) win.set(s);
    }
    const auto result = mc::reachProb(d, win);
    ASSERT_TRUE(result.solver.has_value());
    EXPECT_TRUE(result.solver->converged);
    EXPECT_NEAR(mc::fromInitial(d, result.stateValues),
                static_cast<double>(start) / n, 1e-9);
  }
}

TEST(Unbounded, BiasedGamblersRuinClosedForm) {
  // P(hit n before 0 | start i) = (1-r^i)/(1-r^n), r = q/p.
  const std::uint32_t n = 6;
  const double p = 0.6;
  const double r = (1.0 - p) / p;
  const std::uint32_t start = 2;
  const auto model = test::gamblersRuin(n, p, start);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto varIdx = d.varLayout().indexOf("s");
  la::BitVector win(d.numStates());
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (d.varValue(s, varIdx) == static_cast<std::int32_t>(n)) win.set(s);
  }
  const auto result = mc::reachProb(d, win);
  const double expected =
      (1.0 - std::pow(r, start)) / (1.0 - std::pow(r, n));
  EXPECT_NEAR(mc::fromInitial(d, result.stateValues), expected, 1e-9);
}

TEST(Unbounded, Prob0Identification) {
  // 0 -> 1 -> 2(target), 3 isolated absorbing: states reaching target = 0,1,2.
  test::MatrixModel model(
      {{0, 0.5, 0, 0.5}, {0, 0, 1, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto varIdx = d.varLayout().indexOf("s");
  la::BitVector psi(d.numStates());
  const la::BitVector phi(d.numStates(), true);
  std::uint32_t idx3 = ~0u;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (d.varValue(s, varIdx) == 2) psi.set(s);
    if (d.varValue(s, varIdx) == 3) idx3 = s;
  }
  const auto prob0 = mc::prob0States(d, phi, psi);
  ASSERT_NE(idx3, ~0u);
  EXPECT_TRUE(prob0.get(idx3));
  EXPECT_EQ(prob0.count(), 1u);
}

TEST(Unbounded, Prob1Identification) {
  // From state 1 the target is reached with probability 1; from state 0 with
  // probability 0.5.
  test::MatrixModel model(
      {{0, 0.5, 0, 0.5}, {0, 0, 1, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto varIdx = d.varLayout().indexOf("s");
  la::BitVector psi(d.numStates());
  const la::BitVector phi(d.numStates(), true);
  std::uint32_t idx1 = ~0u;
  std::uint32_t idx0 = ~0u;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (d.varValue(s, varIdx) == 2) psi.set(s);
    if (d.varValue(s, varIdx) == 1) idx1 = s;
    if (d.varValue(s, varIdx) == 0) idx0 = s;
  }
  const auto prob1 = mc::prob1States(d, phi, psi);
  EXPECT_TRUE(prob1.get(idx1));
  EXPECT_FALSE(prob1.get(idx0));
  const auto result = mc::reachProb(d, psi);
  EXPECT_NEAR(result.stateValues[idx0], 0.5, 1e-10);
}

TEST(Unbounded, GraphPrecomputationMakesValueIterationExact) {
  // When prob0/prob1 cover everything, no solver runs.
  const auto model = test::lineModel(5);
  const auto d = dtmc::buildExplicit(model).dtmc;
  la::BitVector psi(5);
  psi.set(4);
  const auto result = mc::reachProb(d, psi);
  EXPECT_FALSE(result.solver.has_value());
  EXPECT_NEAR(result.stateValues[0], 1.0, 1e-15);
}

TEST(Unbounded, UntilRespectsPhi) {
  const auto model = test::gamblersRuin(4, 0.5, 2);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto varIdx = d.varLayout().indexOf("s");
  la::BitVector psi(d.numStates());
  la::BitVector phi(d.numStates());
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    const auto v = d.varValue(s, varIdx);
    if (v == 4) psi.set(s);
    if (v >= 2) phi.set(s);  // may not dip below the midpoint
  }
  const auto bounded = mc::untilProb(d, phi, psi);
  // Must win 2 in a row immediately: probability 1/4... then from 3 it can
  // oscillate 3->2->3: compute expected value by hand:
  // f(2) = 0.5 f(3); f(3) = 0.5 + 0.5 f(2)  =>  f(2) = 1/3? No:
  // f(2) = 0.5*f(3) + 0.5*0 (drops to 1, not phi)
  // f(3) = 0.5*1 + 0.5*f(2)
  // => f(2) = 0.5*(0.5 + 0.5 f(2)) = 0.25 + 0.25 f(2) => f(2) = 1/3.
  EXPECT_NEAR(mc::fromInitial(d, bounded.stateValues), 1.0 / 3.0, 1e-9);
}

TEST(Unbounded, BoundedConvergesToUnbounded) {
  const auto model = test::randomModel(20, 3, 55);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto psi = d.evalAtom(model, "target");
  const auto unbounded = mc::reachProb(d, psi);
  const auto bounded =
      mc::Checker(d, model).check("P=? [ F<=2000 \"target\" ]").stateValues;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    EXPECT_NEAR(bounded[s], unbounded.stateValues[s], 1e-6);
  }
}

}  // namespace
}  // namespace mimostat
