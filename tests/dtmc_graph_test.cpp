#include <gtest/gtest.h>

#include "dtmc/builder.hpp"
#include "dtmc/graph.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

dtmc::ExplicitDtmc build(const dtmc::Model& model) {
  return dtmc::buildExplicit(model).dtmc;
}

TEST(Scc, SingleComponentCycle) {
  const auto d = build(test::cycleModel(5));
  const auto scc = dtmc::computeSccs(d);
  EXPECT_EQ(scc.numComponents, 1u);
  EXPECT_EQ(scc.bottomComponents.size(), 1u);
}

TEST(Scc, LineHasOneComponentPerState) {
  const auto d = build(test::lineModel(6));
  const auto scc = dtmc::computeSccs(d);
  EXPECT_EQ(scc.numComponents, 6u);
  EXPECT_EQ(scc.bottomComponents.size(), 1u);  // only the absorbing end
}

TEST(Scc, GamblersRuinHasTwoBottoms) {
  const auto d = build(test::gamblersRuin(5, 0.5, 2));
  const auto scc = dtmc::computeSccs(d);
  EXPECT_EQ(scc.bottomComponents.size(), 2u);
}

TEST(Scc, ReverseTopologicalNumbering) {
  const auto d = build(test::lineModel(4));
  const auto scc = dtmc::computeSccs(d);
  // Every edge must go from a higher component id to a lower one.
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    for (std::uint64_t k = d.rowPtr()[s]; k < d.rowPtr()[s + 1]; ++k) {
      const std::uint32_t t = d.col()[k];
      if (scc.componentOf[s] != scc.componentOf[t]) {
        EXPECT_GT(scc.componentOf[s], scc.componentOf[t]);
      }
    }
  }
}

TEST(Period, CycleHasPeriodN) {
  const auto d = build(test::cycleModel(6));
  EXPECT_EQ(dtmc::chainPeriod(d), 6u);
}

TEST(Period, SelfLoopMakesAperiodic) {
  test::MatrixModel model({{0.5, 0.5, 0.0}, {0.0, 0.0, 1.0}, {1.0, 0.0, 0.0}});
  const auto d = build(model);
  ASSERT_EQ(dtmc::computeSccs(d).numComponents, 1u);  // irreducible
  EXPECT_EQ(dtmc::chainPeriod(d), 1u);
}

TEST(Period, TwoCycleEvenPeriod) {
  const auto d = build(test::cycleModel(2));
  EXPECT_EQ(dtmc::chainPeriod(d), 2u);
}

}  // namespace
}  // namespace mimostat
