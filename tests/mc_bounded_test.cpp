#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/thread_pool.hpp"
#include "la/exec.hpp"
#include "la/spmv.hpp"
#include "legacy_loops.hpp"
#include "mc/checker.hpp"
#include "pctl/parser.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Per-state values of one property through mc::Checker.
std::vector<double> stateValues(const dtmc::ExplicitDtmc& d,
                                const dtmc::Model& model,
                                const std::string& property) {
  return mc::Checker(d, model).check(property).stateValues;
}

/// P=?[property] from the initial distribution, through mc::Checker.
double fromInit(const dtmc::ExplicitDtmc& d, const dtmc::Model& model,
                const std::string& property) {
  return mc::Checker(d, model).check(property).value;
}

TEST(Bounded, FinallyOnLineNeedsExactlyDistanceSteps) {
  const auto model = test::lineModel(6);
  const auto d = dtmc::buildExplicit(model).dtmc;
  // From state 0 the target is 5 steps away.
  EXPECT_NEAR(fromInit(d, model, "P=? [ F<=4 s=5 ]"), 0.0, 1e-15);
  EXPECT_NEAR(fromInit(d, model, "P=? [ F<=5 s=5 ]"), 1.0, 1e-15);
  EXPECT_NEAR(fromInit(d, model, "P=? [ F<=100 s=5 ]"), 1.0, 1e-15);
}

TEST(Bounded, MonotoneInBound) {
  const auto model = test::randomModel(25, 3, 17);
  const auto d = dtmc::buildExplicit(model).dtmc;
  double prev = -1.0;
  for (const std::uint64_t k : {0ULL, 1ULL, 2ULL, 4ULL, 8ULL, 16ULL}) {
    const double v = fromInit(
        d, model, "P=? [ F<=" + std::to_string(k) + " \"target\" ]");
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(Bounded, GloballyIsComplementOfFinallyNot) {
  // G<=k !target = 1 - F<=k target, state by state, against the verbatim
  // legacy loop.
  const auto model = test::randomModel(20, 3, 31);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const std::vector<std::uint8_t> target =
      test::toBytes(d.evalAtom(model, "target"));
  const std::vector<std::uint8_t> all(d.numStates(), 1);
  for (const std::uint64_t k : {0ULL, 3ULL, 7ULL}) {
    const auto g = stateValues(
        d, model, "P=? [ G<=" + std::to_string(k) + " !\"target\" ]");
    const auto f = test::legacyBoundedUntil(d, all, target, k);
    ASSERT_EQ(g.size(), f.size());
    for (std::size_t s = 0; s < g.size(); ++s) {
      EXPECT_EQ(g[s], 1.0 - f[s]) << "G<=" << k << " state " << s;
    }
  }
}

TEST(Bounded, UntilZeroBoundIsPsiIndicator) {
  const auto model = test::randomModel(10, 2, 3);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto psi = d.evalAtom(model, "target");
  const auto x = stateValues(d, model, "P=? [ true U<=0 \"target\" ]");
  ASSERT_EQ(x.size(), d.numStates());
  for (std::size_t s = 0; s < x.size(); ++s) {
    EXPECT_EQ(x[s], psi.get(s) ? 1.0 : 0.0);
  }
}

TEST(Bounded, UntilBlockedByPhi) {
  // 0 -> 1 -> 2(target); phi excludes state 1, so P(phi U target) from 0 is
  // 0 for every bound.
  test::MatrixModel model({{0, 1, 0}, {0, 0, 1}, {0, 0, 1}});
  const auto d = dtmc::buildExplicit(model).dtmc;
  EXPECT_NEAR(fromInit(d, model, "P=? [ !(s=1) U<=10 s=2 ]"), 0.0, 1e-15);
  // With phi allowing state 1 it reaches in 2 steps.
  EXPECT_NEAR(fromInit(d, model, "P=? [ true U<=2 s=2 ]"), 1.0, 1e-15);
}

TEST(Bounded, GamblersRuinSymmetric) {
  // Fair game from the midpoint: hitting 0 within k steps has the same
  // probability as hitting n within k steps.
  const auto model = test::gamblersRuin(6, 0.5, 3);
  const auto d = dtmc::buildExplicit(model).dtmc;
  for (const std::uint64_t k : {3ULL, 9ULL, 30ULL}) {
    const std::string bound = std::to_string(k);
    EXPECT_NEAR(fromInit(d, model, "P=? [ F<=" + bound + " s=0 ]"),
                fromInit(d, model, "P=? [ F<=" + bound + " s=6 ]"), 1e-12);
  }
}

TEST(Bounded, NextProbability) {
  const auto model = test::twoStateChain(0.3, 0.4);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto x = stateValues(d, model, "P=? [ X s=1 ]");
  EXPECT_NEAR(x[0], 0.3, 1e-15);
  EXPECT_NEAR(x[1], 0.6, 1e-15);
}

TEST(Bounded, FromInitialWeighsDistribution) {
  // Only the two absorbing initial states are reachable.
  test::MatrixModel model({{1.0, 0, 0}, {0, 1.0, 0}, {0, 0, 1.0}}, {0, 1});
  const auto d = dtmc::buildExplicit(model).dtmc;
  ASSERT_EQ(d.numStates(), 2u);
  const std::vector<double> values{1.0, 0.5};
  EXPECT_NEAR(mc::fromInitial(d, values), 0.75, 1e-15);
}

// ------------------------------------------ masked-SpMM path vs legacy loops

TEST(Bounded, MaskedKernelMatchesLegacyLoopBitwise) {
  // The bounded group's step, one column at a time: a masked la::spmm
  // freezing psi at 1.0 and !phi at 0.0 reproduces the legacy until loop,
  // and an unmasked product of the psi indicator the legacy next loop.
  const auto model = test::randomModel(400, 4, 71);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto psi = d.evalAtom(model, "target");
  const std::vector<std::uint8_t> psiBytes = test::toBytes(psi);
  std::vector<std::uint8_t> phiBytes(d.numStates());
  for (std::uint32_t s = 0; s < d.numStates(); ++s) phiBytes[s] = s % 3 != 0;
  const la::BitVector phi = test::fromBytes(phiBytes);
  std::vector<double> indicator(d.numStates(), 0.0);
  psi.forEachSetBit([&](std::size_t s) { indicator[s] = 1.0; });

  const auto masked = [&](const la::BitVector& frozen, std::uint64_t bound) {
    const std::vector<la::BitVector> masks{frozen};
    std::vector<double> x = indicator;
    std::vector<double> next;
    for (std::uint64_t j = 0; j < bound; ++j) {
      la::spmm(d.matrix(), x, 1, next, {}, la::Side::kRight, &masks);
      x.swap(next);
    }
    return x;
  };
  la::BitVector untilFrozen = ~phi;
  untilFrozen |= psi;
  for (const std::uint64_t k : {0ULL, 1ULL, 7ULL, 33ULL}) {
    EXPECT_TRUE(bitEqual(masked(untilFrozen, k),
                         test::legacyBoundedUntil(d, phiBytes, psiBytes, k)))
        << "U<=" << k;
    EXPECT_TRUE(bitEqual(masked(psi, k),
                         test::legacyBoundedUntil(
                             d, std::vector<std::uint8_t>(d.numStates(), 1),
                             psiBytes, k)))
        << "F<=" << k;
  }
  std::vector<double> next;
  la::spmm(d.matrix(), indicator, 1, next);
  EXPECT_TRUE(bitEqual(next, test::legacyNextProb(d, psiBytes)));
}

/// Per-property reference values via the verbatim legacy loops.
std::vector<double> legacyReference(const dtmc::ExplicitDtmc& d,
                                    const std::vector<std::uint8_t>& target,
                                    const std::vector<std::uint8_t>& phi) {
  const std::vector<std::uint8_t> all(d.numStates(), 1);
  std::vector<double> expected;
  expected.push_back(
      mc::fromInitial(d, test::legacyBoundedUntil(d, all, target, 5)));
  expected.push_back(
      mc::fromInitial(d, test::legacyBoundedUntil(d, all, target, 12)));
  {
    // G<=9 !target = 1 - F<=9 target.
    auto g = test::legacyBoundedUntil(d, all, target, 9);
    for (double& v : g) v = 1.0 - v;
    expected.push_back(mc::fromInitial(d, g));
  }
  expected.push_back(
      mc::fromInitial(d, test::legacyBoundedUntil(d, phi, target, 12)));
  expected.push_back(mc::fromInitial(d, test::legacyNextProb(d, target)));
  return expected;
}

TEST(Bounded, BatchedPlanBitIdenticalToPerFormulaAt128Threads) {
  // Five bounded formulas — shared psi at two thresholds, a complemented
  // globally, a phi-constrained until, and a next — evaluated (a) by the
  // verbatim legacy per-formula loops and (b) as columns of one masked
  // SpMM traversal via Checker::checkAll, sequentially and on 1/2/8-thread
  // pools. The contract is bitwise identity, not tolerance.
  const auto model = test::randomModel(600, 5, 101);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto target = d.evalAtom(model, "target");

  const std::vector<std::string> texts{
      "P=? [ F<=5 \"target\" ]",    "P=? [ F<=12 \"target\" ]",
      "P=? [ G<=9 !\"target\" ]",   "P=? [ (s<400 & !(s=0)) U<=12 \"target\" ]",
      "P=? [ X \"target\" ]",
  };
  std::vector<pctl::Property> properties;
  for (const auto& t : texts) properties.push_back(pctl::parseProperty(t));

  // The reference phi mirrors the parsed until's "(s<400 & !(s=0))".
  const auto varIdx = d.varLayout().indexOf("s");
  std::vector<std::uint8_t> phi(d.numStates());
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    phi[s] = d.varValue(s, varIdx) < 400 && d.varValue(s, varIdx) != 0;
  }
  const std::vector<double> expected =
      legacyReference(d, test::toBytes(target), phi);

  const auto runAll = [&](const la::Exec& exec) {
    mc::CheckOptions options;
    options.exec = exec;
    const mc::Checker checker(d, model, options);
    pctl::PlanStats stats;
    const auto results = checker.checkAll(properties, &stats);
    // 5 formulas, every one batched into the single shared traversal.
    EXPECT_EQ(stats.traversalsSaved, (5u + 12u + 9u + 12u + 1u) - 12u);
    std::vector<double> values;
    for (const auto& r : results) {
      EXPECT_TRUE(r.ok()) << r.error;
      EXPECT_TRUE(r.batched);
      values.push_back(r.value);
    }
    return values;
  };

  EXPECT_TRUE(bitEqual(runAll({}), expected));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::ThreadPool pool(threads);
    la::Exec exec;
    exec.runner = engine::laRunnerFor(pool);
    exec.parallelThresholdNnz = 1;  // force the parallel kernels
    EXPECT_TRUE(bitEqual(runAll(exec), expected)) << threads << " threads";
  }
}

TEST(Bounded, PlanDedupSharesColumnsAcrossThresholds) {
  const auto model = test::randomModel(200, 4, 303);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  std::vector<pctl::Property> properties{
      pctl::parseProperty("P=? [ F<=4 \"target\" ]"),
      pctl::parseProperty("P=? [ F<=11 \"target\" ]"),
      pctl::parseProperty("P=? [ G<=7 !\"target\" ]"),
  };
  pctl::PlanStats stats;
  const auto results = checker.checkAll(properties, &stats);
  // One mask, one column, three readouts: per-formula would traverse
  // 4 + 11 + 7 steps, the shared column traverses 11.
  EXPECT_EQ(stats.tasksPlanned, 3u);  // mask + column + group task
  EXPECT_EQ(stats.traversalsSaved, 11u);
  const std::vector<std::uint8_t> target =
      test::toBytes(d.evalAtom(model, "target"));
  const std::vector<std::uint8_t> all(d.numStates(), 1);
  EXPECT_TRUE(bitEqual(results[0].stateValues,
                       test::legacyBoundedUntil(d, all, target, 4)));
  EXPECT_TRUE(bitEqual(results[1].stateValues,
                       test::legacyBoundedUntil(d, all, target, 11)));
  auto g = test::legacyBoundedUntil(d, all, target, 7);
  for (double& v : g) v = 1.0 - v;
  EXPECT_TRUE(bitEqual(results[2].stateValues, g));
}

TEST(Bounded, CheckAllIsolatesBrokenProperties) {
  const auto model = test::randomModel(60, 3, 11);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const std::vector<pctl::Property> properties{
      pctl::parseProperty("P=? [ F<=5 \"target\" ]"),
      pctl::parseProperty("P=? [ F<=5 bogus>2 ]"),  // unknown variable
      pctl::parseProperty("P=? [ F<=8 \"target\" ]"),
  };
  const auto results = checker.checkAll(properties);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("bogus"), std::string::npos);
  EXPECT_TRUE(results[2].ok());
  // The healthy siblings still match the legacy per-formula loop bitwise.
  const auto target = d.evalAtom(model, "target");
  EXPECT_TRUE(bitEqual(
      results[2].stateValues,
      test::legacyBoundedUntil(d, std::vector<std::uint8_t>(d.numStates(), 1),
                               test::toBytes(target), 8)));
}

TEST(Bounded, TransientGroupIsolatesBrokenRewards) {
  // A reward structure that fails to evaluate must error only the entries
  // referencing it; sibling horizons still ride the shared sweep.
  class ThrowingRewardModel : public test::MatrixModel {
   public:
    using test::MatrixModel::MatrixModel;
    [[nodiscard]] double stateReward(const dtmc::State& s,
                                     std::string_view name) const override {
      if (name == "missing") throw std::runtime_error("no reward 'missing'");
      return test::MatrixModel::stateReward(s, name);
    }
  };
  ThrowingRewardModel model({{0.5, 0.5}, {0.2, 0.8}});
  model.withRewards({0.0, 1.0});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const auto results = checker.checkAll({
      pctl::parseProperty("R=? [ I=5 ]"),
      pctl::parseProperty("R{\"missing\"}=? [ I=5 ]"),
      pctl::parseProperty("R=? [ C<=4 ]"),
  });
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_FALSE(results[1].ok());
  EXPECT_NE(results[1].error.find("missing"), std::string::npos);
  ASSERT_TRUE(results[2].ok()) << results[2].error;
  EXPECT_GT(results[0].value, 0.0);
  EXPECT_GT(results[2].value, 0.0);
  EXPECT_TRUE(results[0].batched);
  EXPECT_FALSE(results[1].batched);
}

TEST(Bounded, DuplicateSinglesShareOneSolveBitwise) {
  const auto model = test::gamblersRuin(30, 0.45, 15);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const std::vector<pctl::Property> properties{
      pctl::parseProperty("P=? [ F s=30 ]"),
      pctl::parseProperty("P=? [ F s=30 ]"),  // structurally identical
  };
  pctl::PlanStats stats;
  const auto results = checker.checkAll(properties, &stats);
  EXPECT_EQ(stats.tasksDeduped, 1u);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_TRUE(results[0].batched);
  EXPECT_TRUE(results[1].batched);
  EXPECT_EQ(results[0].value, results[1].value);
  EXPECT_TRUE(bitEqual(results[0].stateValues, results[1].stateValues));
  // The copy equals an independent solve bit for bit.
  const mc::CheckResult solo = checker.check("P=? [ F s=30 ]");
  EXPECT_EQ(solo.value, results[1].value);
}

TEST(Bounded, BoundedProbabilityBoundsDecideSatisfied) {
  // P>=theta [...] through the batched path must evaluate the comparison.
  const auto model = test::lineModel(4);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const std::vector<pctl::Property> properties{
      pctl::parseProperty("P>=0.5 [ F<=3 s=3 ]"),  // reaches: satisfied
      pctl::parseProperty("P>=0.5 [ F<=2 s=3 ]"),  // too short: violated
  };
  const auto results = checker.checkAll(properties);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_TRUE(results[0].satisfied);
  EXPECT_FALSE(results[1].satisfied);
}

}  // namespace
}  // namespace mimostat
