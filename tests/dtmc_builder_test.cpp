#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "la/spmv.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

TEST(VarLayout, PackUnpackRoundTrip) {
  dtmc::VarLayout layout({{"a", 0, 6}, {"b", -2, 2}, {"c", 0, 1}});
  EXPECT_EQ(layout.totalBits(), 3 + 3 + 1);
  const dtmc::State s{5, -1, 1};
  EXPECT_EQ(layout.unpack(layout.pack(s)), s);
  EXPECT_EQ(layout.indexOf("b"), 1u);
  EXPECT_EQ(layout.tryIndexOf("missing"), dtmc::VarLayout::npos);
}

TEST(VarLayout, RejectsLayoutsWiderThan64Bits) {
  try {
    (void)dtmc::VarLayout(test::WideModel().variables());
    FAIL() << "a 93-bit layout was constructed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("93 bits"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)test::WideModel().layout(), std::invalid_argument);
  // One bit more than a full word: 32 + 32 + 1.
  EXPECT_THROW((void)dtmc::VarLayout({{"a", INT32_MIN, INT32_MAX},
                                      {"b", INT32_MIN, INT32_MAX},
                                      {"c", 0, 1}}),
               std::invalid_argument);
}

TEST(VarLayout, PackingIsLexicographic) {
  // The explorer sorts rows by packed key; that is State's order only if
  // variable 0 sits in the high bits.
  dtmc::VarLayout layout({{"a", -1, 2}, {"b", 0, 4}, {"c", -3, -2}});
  std::vector<dtmc::State> states;
  for (int a = -1; a <= 2; ++a) {
    for (int b = 0; b <= 4; ++b) {
      for (int c = -3; c <= -2; ++c) states.push_back({a, b, c});
    }
  }
  for (const auto& x : states) {
    for (const auto& y : states) {
      EXPECT_EQ(layout.pack(x) < layout.pack(y), x < y);
    }
  }
}

TEST(NormalizeTransitions, MergesDuplicates) {
  std::vector<dtmc::PackedTransition> ts;
  ts.push_back({0.25, 1});
  ts.push_back({0.25, 1});
  ts.push_back({0.5, 0});
  const double mass = dtmc::normalizeTransitions(ts, 0.0);
  EXPECT_NEAR(mass, 1.0, 1e-15);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].target, 0u);
  EXPECT_NEAR(ts[1].prob, 0.5, 1e-15);
}

TEST(NormalizeTransitions, LeavesAStrictlyAscendingRowBitIdentical) {
  // Probabilities that would round differently if summed or reordered.
  const std::vector<dtmc::PackedTransition> ascending{
      {0.1, 2}, {0.7, 5}, {1e-17, 6}, {0.2, 9}};
  std::vector<dtmc::PackedTransition> row = ascending;
  const double mass = dtmc::normalizeTransitions(row, 0.0);
  EXPECT_EQ(mass, ((0.1 + 0.7) + 1e-17) + 0.2);
  ASSERT_EQ(row.size(), ascending.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i].target, ascending[i].target);
    EXPECT_EQ(std::memcmp(&row[i].prob, &ascending[i].prob, sizeof(double)),
              0);
  }
}

TEST(NormalizeTransitions, FloorDropsAndRenormalizes) {
  std::vector<dtmc::PackedTransition> ts;
  ts.push_back({1e-20, 0});
  ts.push_back({0.5, 1});
  ts.push_back({0.5 - 1e-20, 2});
  dtmc::normalizeTransitions(ts, 1e-15);
  ASSERT_EQ(ts.size(), 2u);
  double total = 0.0;
  for (const auto& t : ts) total += t.prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

/// A floor above every probability of a row would leave it empty — a
/// substochastic chain. Checked with exceptions, so it holds in Release.
TEST(NormalizeTransitions, FloorThatEmptiesARowThrows) {
  std::vector<dtmc::PackedTransition> ts{{0.5, 0}, {0.5, 1}};
  try {
    (void)dtmc::normalizeTransitions(ts, 0.6);
    FAIL() << "the floor emptied the row silently";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("0.6"), std::string::npos)
        << e.what();
  }
  dtmc::BuildOptions options;
  options.probFloor = 0.6;
  EXPECT_THROW((void)dtmc::buildExplicit(test::twoStateChain(0.5, 0.5),
                                         options),
               std::invalid_argument);
  // A floor that keeps one entry per row still builds.
  options.probFloor = 0.4;
  EXPECT_EQ(dtmc::buildExplicit(test::twoStateChain(0.5, 0.5), options)
                .dtmc.numStates(),
            2u);
}

TEST(Builder, TwoStateChain) {
  const auto model = test::twoStateChain(0.3, 0.4);
  const auto result = dtmc::buildExplicit(model);
  EXPECT_EQ(result.dtmc.numStates(), 2u);
  EXPECT_EQ(result.dtmc.numTransitions(), 4u);
  EXPECT_LT(test::maxRowDeviation(result.dtmc), 1e-12);
  EXPECT_NEAR(result.dtmc.initialDistribution()[0], 1.0, 1e-15);
}

TEST(Builder, ReachabilityIterationsOfLine) {
  // A line of n states needs n frontier expansions to fixpoint.
  const auto model = test::lineModel(10);
  const auto result = dtmc::buildExplicit(model);
  EXPECT_EQ(result.dtmc.numStates(), 10u);
  EXPECT_EQ(result.reachabilityIterations, 10u);
}

TEST(Builder, UnreachableStatesExcluded) {
  // Matrix has 5 states but only 0 and 1 communicate from the start.
  test::MatrixModel model({{0.5, 0.5, 0, 0, 0},
                           {1.0, 0, 0, 0, 0},
                           {0, 0, 1.0, 0, 0},
                           {0, 0, 0, 1.0, 0},
                           {0, 0, 0, 0, 1.0}});
  const auto result = dtmc::buildExplicit(model);
  EXPECT_EQ(result.dtmc.numStates(), 2u);
}

TEST(Builder, MaxStatesThrows) {
  dtmc::BuildOptions options;
  options.maxStates = 5;
  const auto model = test::lineModel(10);
  EXPECT_THROW(dtmc::buildExplicit(model, options), std::runtime_error);
}

TEST(Builder, MultipleInitialStatesUniform) {
  test::MatrixModel model({{1.0, 0, 0}, {0, 1.0, 0}, {0, 0, 1.0}}, {0, 2});
  const auto result = dtmc::buildExplicit(model);
  EXPECT_NEAR(result.dtmc.initialDistribution()[0], 0.5, 1e-15);
}

TEST(Builder, EvalAtomAndReward) {
  auto model = test::twoStateChain(0.5, 0.5);
  model.withLabel("one", {0, 1}).withRewards({0.0, 2.5});
  const auto result = dtmc::buildExplicit(model);
  const auto truth = result.dtmc.evalAtom(model, "one");
  const auto reward = result.dtmc.evalReward(model, "");
  // State order follows BFS from the initial state 0.
  EXPECT_FALSE(truth.get(0));
  EXPECT_TRUE(truth.get(1));
  EXPECT_EQ(reward[1], 2.5);
}

TEST(Builder, MultiplyLeftRightConsistent) {
  const auto model = test::randomModel(20, 3, 77);
  const auto result = dtmc::buildExplicit(model);
  std::vector<double> x(result.dtmc.numStates());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * (i + 1);
  std::vector<double> left;
  std::vector<double> right;
  const la::CsrMatrix& P = result.dtmc.matrix();
  la::spmm(P, x, 1, left, {}, la::Side::kLeft);
  la::spmm(P, x, 1, right);
  // x P 1 == x . (P 1) == sum(x) since rows sum to 1.
  double sumLeft = 0.0;
  double sumX = 0.0;
  double dotRight = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sumLeft += left[i];
    sumX += x[i];
  }
  std::vector<double> ones(x.size(), 1.0);
  std::vector<double> pOnes;
  la::spmm(P, ones, 1, pOnes);
  for (std::size_t i = 0; i < x.size(); ++i) dotRight += x[i] * pOnes[i];
  EXPECT_NEAR(sumLeft, sumX, 1e-10);
  EXPECT_NEAR(dotRight, sumX, 1e-10);
}

TEST(CountReachable, MatchesExplicitBuilder) {
  const auto model = test::randomModel(50, 4, 123);
  const auto explicitResult = dtmc::buildExplicit(model);
  const auto countResult = dtmc::countReachable(model);
  EXPECT_EQ(countResult.numStates, explicitResult.dtmc.numStates());
  EXPECT_EQ(countResult.numTransitions, explicitResult.dtmc.numTransitions());
  EXPECT_EQ(countResult.reachabilityIterations,
            explicitResult.reachabilityIterations);
}

TEST(CountReachable, MaxStatesThrows) {
  const auto model = test::lineModel(100);
  EXPECT_THROW(static_cast<void>(dtmc::countReachable(model, 10)),
               std::runtime_error);
}

}  // namespace
}  // namespace mimostat
