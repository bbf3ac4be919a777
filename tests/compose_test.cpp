#include <gtest/gtest.h>

#include <cmath>

#include "dtmc/builder.hpp"
#include "dtmc/compose.hpp"
#include "lump/symmetry.hpp"
#include "mc/checker.hpp"
#include "mc/transient.hpp"
#include "test_models.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

double twoStateP1(double a, double b, std::uint64_t t) {
  return a / (a + b) * (1.0 - std::pow(1.0 - a - b, static_cast<double>(t)));
}

TEST(Compose, VariableNamespacing) {
  const auto a = test::twoStateChain(0.3, 0.4);
  const auto b = test::twoStateChain(0.1, 0.2);
  const dtmc::SynchronousProduct product({&a, &b});
  const auto vars = product.variables();
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0].name, "m0_s");
  EXPECT_EQ(vars[1].name, "m1_s");
}

TEST(Compose, ProductStateSpace) {
  const auto a = test::twoStateChain(0.3, 0.4);
  const auto b = test::twoStateChain(0.1, 0.2);
  const dtmc::SynchronousProduct product({&a, &b});
  const auto d = dtmc::buildExplicit(product).dtmc;
  EXPECT_EQ(d.numStates(), 4u);
  EXPECT_LT(test::maxRowDeviation(d), 1e-12);
}

TEST(Compose, IndependenceOfMarginals) {
  // Components evolve independently: the product transient factorises.
  const double a1 = 0.3;
  const double b1 = 0.4;
  const double a2 = 0.15;
  const double b2 = 0.25;
  const auto compA = test::twoStateChain(a1, b1);
  const auto compB = test::twoStateChain(a2, b2);
  const dtmc::SynchronousProduct product({&compA, &compB});
  const auto d = dtmc::buildExplicit(product).dtmc;
  const mc::Checker checker(d, product);
  for (const std::uint64_t t : {1ULL, 4ULL, 16ULL}) {
    const std::string both =
        "P=? [ F<=0 m0_s=1 & m1_s=1 ]";  // placeholder, checked below
    (void)both;
    // P(both components in state 1 at time t) = product of marginals.
    mc::TransientSweep sweep(d);
    sweep.advanceTo(t);
    const auto& pi = sweep.distribution();
    double joint = 0.0;
    const auto i0 = d.varLayout().indexOf("m0_s");
    const auto i1 = d.varLayout().indexOf("m1_s");
    for (std::uint32_t s = 0; s < d.numStates(); ++s) {
      if (d.varValue(s, i0) == 1 && d.varValue(s, i1) == 1) joint += pi[s];
    }
    EXPECT_NEAR(joint, twoStateP1(a1, b1, t) * twoStateP1(a2, b2, t), 1e-12)
        << "t=" << t;
  }
}

TEST(Compose, RewardsAdd) {
  auto a = test::twoStateChain(0.3, 0.4);
  a.withRewards({0.0, 1.0});
  auto b = test::twoStateChain(0.3, 0.4);
  b.withRewards({0.0, 1.0});
  const dtmc::SynchronousProduct product({&a, &b});
  const auto d = dtmc::buildExplicit(product).dtmc;
  const mc::Checker checker(d, product);
  // Expected total = sum of identical marginal expectations.
  EXPECT_NEAR(checker.check("R=? [ I=9 ]").value,
              2.0 * twoStateP1(0.3, 0.4, 9), 1e-12);
}

TEST(Compose, QualifiedAndUnqualifiedAtoms) {
  auto a = test::twoStateChain(0.5, 0.5);
  a.withLabel("one", {0, 1});
  auto b = test::twoStateChain(0.5, 0.5);
  b.withLabel("one", {0, 1});
  const dtmc::SynchronousProduct product({&a, &b});
  // State (1, 0): unqualified "one" is true (OR), m0_one true, m1_one false.
  const dtmc::State s{1, 0};
  EXPECT_TRUE(product.atom(s, "one"));
  EXPECT_TRUE(product.atom(s, "m0_one"));
  EXPECT_FALSE(product.atom(s, "m1_one"));
}

TEST(Compose, IdenticalComponentsAreSymmetric) {
  // Two identical decoders in parallel: the component-permutation symmetry
  // halves (roughly) the state space — the compositional reduction story.
  viterbi::ViterbiParams params;
  params.tracebackLength = 3;
  const viterbi::ReducedViterbiModel lane0(params);
  const viterbi::ReducedViterbiModel lane1(params);
  const dtmc::SynchronousProduct product({&lane0, &lane1});

  const std::size_t width = lane0.variables().size();
  lump::BlockStructure blocks(2);
  for (std::size_t v = 0; v < width; ++v) {
    blocks[0].push_back(v);
    blocks[1].push_back(width + v);
  }
  const lump::SymmetryReducedModel reduced(product, blocks);
  const auto full = dtmc::buildExplicit(product);
  const auto quotient = dtmc::buildExplicit(reduced);
  EXPECT_LT(quotient.dtmc.numStates(), full.dtmc.numStates());

  const mc::Checker fullChecker(full.dtmc, product);
  const mc::Checker quotChecker(quotient.dtmc, reduced);
  // Aggregate (symmetric) reward: expected number of erroneous lanes.
  EXPECT_NEAR(fullChecker.check("R=? [ I=30 ]").value,
              quotChecker.check("R=? [ I=30 ]").value, 1e-10);
}

TEST(Compose, ThreeComponents) {
  const auto a = test::twoStateChain(0.2, 0.3);
  const dtmc::SynchronousProduct product({&a, &a, &a});
  const auto d = dtmc::buildExplicit(product).dtmc;
  EXPECT_EQ(d.numStates(), 8u);
  EXPECT_LT(test::maxRowDeviation(d), 1e-12);
}

}  // namespace
}  // namespace mimostat
