// reduce:: — plan-aware quotienting, state elimination and the engine's
// reduction stage. Asserts the tolerance contract from reduce/reduce.hpp:
// reduced answers agree with the unreduced reference within solver /
// rounding tolerance, and the engine's exports stay byte-identical across
// thread counts and tracing on/off.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/signature.hpp"
#include "engine/engine.hpp"
#include "la/bit_vector.hpp"
#include "mc/checker.hpp"
#include "mc/unbounded.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pctl/parser.hpp"
#include "pctl/plan.hpp"
#include "reduce/eliminate.hpp"
#include "reduce/reduce.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

/// Reflecting birth-death chain with one absorbing "goal" end: every state
/// reaches goal with probability 1, so R=?[F goal] is finite everywhere.
test::MatrixModel birthDeathToGoal(std::uint32_t n, double up) {
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  matrix[0][1] = 1.0;
  for (std::uint32_t i = 1; i + 1 < n; ++i) {
    matrix[i][i + 1] = up;
    matrix[i][i - 1] = 1.0 - up;
  }
  matrix[n - 1][n - 1] = 1.0;
  std::vector<std::uint8_t> goal(n, 0);
  goal[n - 1] = 1;
  std::vector<double> rewards(n, 1.0);
  rewards[n - 1] = 0.0;
  test::MatrixModel model(std::move(matrix));
  model.withLabel("goal", std::move(goal)).withRewards(std::move(rewards));
  return model;
}

TEST(ReduceOptions, SelectionHeuristics) {
  reduce::Options options;  // kAuto: 100'000 states or 256 plan passes
  EXPECT_FALSE(reduce::quotientSelected(options, 99'999, 255));
  EXPECT_TRUE(reduce::quotientSelected(options, 100'000, 0));
  EXPECT_TRUE(reduce::quotientSelected(options, 10, 256));
  EXPECT_EQ(reduce::quotientAutoSkipReason(8193, 14),
            "auto: 8193 states < 100000, 14 plan passes < 256");
  options.quotient = reduce::Toggle::kOn;
  EXPECT_TRUE(reduce::quotientSelected(options, 1, 0));
  options.quotient = reduce::Toggle::kOff;
  EXPECT_FALSE(reduce::quotientSelected(options, 1'000'000, 1'000'000));

  // Elimination: the quotient applied AND has at most 50,000 states.
  EXPECT_TRUE(reduce::eliminationSelected(true, 50'000));
  EXPECT_FALSE(reduce::eliminationSelected(true, 50'001));
  EXPECT_FALSE(reduce::eliminationSelected(false, 10));
}

TEST(ReduceOptions, PlanPassesCountTraversalWork) {
  const auto parse = [](const std::vector<std::string>& texts) {
    std::vector<pctl::Property> properties;
    for (const auto& text : texts) {
      properties.push_back(pctl::parseProperty(text));
    }
    return pctl::buildPlan(properties);
  };
  // The Table I/III set: one 300-step column plus a 1000-step sweep.
  EXPECT_EQ(reduce::planPasses(parse({"P=? [ G<=300 !flag ]",
                                      "R=? [ I=100 ]", "R=? [ I=1000 ]"})),
            1300u);
  // Two columns to step 8 (MIMO-style); cumulative C<=5 sweeps 4 steps.
  EXPECT_EQ(reduce::planPasses(parse({"P=? [ F<=8 flag=1 ]",
                                      "P=? [ F<=8 x=1 ]", "R=? [ C<=5 ]"})),
            20u);
  // Unbounded and steady-state singles count 0.
  EXPECT_EQ(reduce::planPasses(parse({"P=? [ F flag=1 ]", "R=? [ S ]"})), 0u);
}

TEST(EngineReduce, AutoDeclineRecordsItsReason) {
  // A short plan on a small model: kAuto declines, and says why.
  const test::SymmetricBanksModel model(8, 0.3, 0.2);
  engine::EngineOptions engineOptions;
  engineOptions.threads = 2;
  obs::MetricsRegistry metrics;
  engineOptions.metrics = &metrics;
  engine::AnalysisEngine eng(engineOptions);
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=10 any ]"};
  const auto response = eng.analyze(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_FALSE(response.reduction.applied);
  EXPECT_EQ(response.reduction.skipReason,
            "auto: " + std::to_string(response.states) +
                " states < 100000, 10 plan passes < 256");
  EXPECT_EQ(response.timing.reduceSeconds, 0.0);

  // A 256-pass plan on the same model quotients.
  request.properties = {"P=? [ F<=256 any ]"};
  const auto reduced = eng.analyze(request);
  ASSERT_TRUE(reduced.ok()) << reduced.error;
  EXPECT_TRUE(reduced.reduction.applied);
  EXPECT_TRUE(reduced.reduction.skipReason.empty());
}

TEST(ReduceQuotient, BuildQuotientLiftProject) {
  // 4 symmetric banks: 16 states collapse to the 5 count classes when the
  // partition is seeded by the count reward (the "any" mask refines
  // nothing the reward does not already split).
  const test::SymmetricBanksModel model(4, 0.3, 0.2);
  const auto build = dtmc::buildExplicit(model);
  const la::BitVector any = build.dtmc.evalAtom(model, "any");
  const std::vector<double> reward = build.dtmc.evalReward(model, "");

  const reduce::ReducedModel reduced =
      reduce::buildQuotient(build.dtmc, {&any}, {&reward});
  const reduce::ReductionInfo& info = reduced.info;
  EXPECT_EQ(info.statesBefore, 16u);
  EXPECT_EQ(info.statesAfter, 5u);
  ASSERT_EQ(info.blockOf.size(), 16u);
  ASSERT_EQ(info.representative.size(), 5u);
  EXPECT_EQ(reduced.quotient.numStates(), 5u);
  EXPECT_GT(info.transitionsBefore, info.transitionsAfter);

  // Keyed masks and rewards are block-constant: every state agrees with its
  // block representative, which the quotient's checker evaluates.
  for (std::uint32_t s = 0; s < 16; ++s) {
    const std::uint32_t rep = info.representative[info.blockOf[s]];
    EXPECT_EQ(any.get(s), any.get(rep)) << "state " << s;
    EXPECT_EQ(reward[s], reward[rep]) << "state " << s;
  }

  // Quotient initial mass sums block members: banks start all-zero, so the
  // all-zero block carries the whole distribution.
  double initialMass = 0.0;
  for (const double w : reduced.quotient.initialDistribution()) {
    initialMass += w;
  }
  EXPECT_NEAR(initialMass, 1.0, 1e-12);
}

TEST(ReduceElimination, MatchesIterativeUntil) {
  const auto model = test::gamblersRuin(15, 0.45, 7);
  const auto build = dtmc::buildExplicit(model);
  const std::uint32_t n = build.dtmc.numStates();
  la::BitVector phi(n);
  for (std::uint32_t s = 0; s < n; ++s) phi.set(s);
  la::BitVector psi(n);
  // Ruin = counter variable "s" at 0; find that state in the table.
  for (std::uint32_t s = 0; s < n; ++s) {
    if (build.dtmc.varValue(s, 0) == 0) psi.set(s);
  }

  const mc::ReachResult iterative = mc::untilProb(build.dtmc, phi, psi);
  const mc::ReachResult exact =
      mc::untilProbByElimination(build.dtmc, phi, psi);
  ASSERT_EQ(exact.stateValues.size(), iterative.stateValues.size());
  for (std::uint32_t s = 0; s < n; ++s) {
    EXPECT_NEAR(exact.stateValues[s], iterative.stateValues[s], 1e-8)
        << "state " << s;
  }
  ASSERT_TRUE(exact.solver.has_value());
  EXPECT_EQ(exact.solver->solver, "elimination");
  EXPECT_TRUE(exact.solver->converged);
  EXPECT_EQ(exact.solver->residual, 0.0);
  EXPECT_GT(exact.solver->iterations, 0u);  // = states eliminated
}

TEST(ReduceElimination, MatchesIterativeReward) {
  const auto model = birthDeathToGoal(14, 0.55);
  const auto build = dtmc::buildExplicit(model);
  const std::uint32_t n = build.dtmc.numStates();
  const la::BitVector psi = build.dtmc.evalAtom(model, "goal");
  const std::vector<double> reward = build.dtmc.evalReward(model, "");

  const mc::ReachResult iterative =
      mc::expectedReachReward(build.dtmc, reward, psi);
  const mc::ReachResult exact =
      mc::expectedReachRewardByElimination(build.dtmc, reward, psi);
  ASSERT_EQ(exact.stateValues.size(), iterative.stateValues.size());
  for (std::uint32_t s = 0; s < n; ++s) {
    const double scale = std::max(1.0, std::abs(iterative.stateValues[s]));
    EXPECT_NEAR(exact.stateValues[s], iterative.stateValues[s], 1e-7 * scale)
        << "state " << s;
  }
  ASSERT_TRUE(exact.solver.has_value());
  EXPECT_EQ(exact.solver->solver, "elimination");
}

TEST(ReduceElimination, InfiniteRewardStatesAgree) {
  // Gambler's ruin with reward 1 per step: interior states reach "win"
  // (s = n) with probability < 1, so their expected reward is +infinity on
  // both paths.
  auto model = test::gamblersRuin(10, 0.5, 5);
  model.withRewards(std::vector<double>(11, 1.0));
  const auto build = dtmc::buildExplicit(model);
  const std::uint32_t n = build.dtmc.numStates();
  la::BitVector psi(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (build.dtmc.varValue(s, 0) == 10) psi.set(s);
  }

  const mc::ReachResult iterative =
      mc::expectedReachReward(build.dtmc, build.dtmc.evalReward(model, ""), psi);
  const mc::ReachResult exact = mc::expectedReachRewardByElimination(
      build.dtmc, build.dtmc.evalReward(model, ""), psi);
  const double inf = std::numeric_limits<double>::infinity();
  bool sawInfinite = false;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (std::isinf(iterative.stateValues[s])) {
      EXPECT_EQ(exact.stateValues[s], inf) << "state " << s;
      sawInfinite = true;
    } else {
      EXPECT_NEAR(exact.stateValues[s], iterative.stateValues[s], 1e-8);
    }
  }
  EXPECT_TRUE(sawInfinite);
}

TEST(ReduceElimination, AllStatesClassifiedRunsNoElimination) {
  // psi covers every state: Prob1 classifies everything and elimination has
  // nothing to do — no solver report, as on the iterative path.
  const auto model = test::twoStateChain(0.3, 0.4);
  const auto build = dtmc::buildExplicit(model);
  la::BitVector psi(build.dtmc.numStates());
  psi.set(0);
  psi.set(1);
  const mc::ReachResult r = mc::reachProbByElimination(build.dtmc, psi);
  EXPECT_FALSE(r.solver.has_value());
  EXPECT_EQ(r.stateValues[0], 1.0);
  EXPECT_EQ(r.stateValues[1], 1.0);
}

TEST(ReduceElimination, CheckerSelectsEliminationViaOptions) {
  // One property per model so the undetermined-state set is non-empty and
  // a solver actually runs: ruin probability (interior states strictly
  // between 0 and 1) and a finite expected reward.
  auto ruinModel = test::gamblersRuin(12, 0.45, 6);
  std::vector<std::uint8_t> ruin(13, 0);
  ruin[0] = 1;
  ruinModel.withLabel("ruin", std::move(ruin));
  const auto rewardModel = birthDeathToGoal(12, 0.5);

  const auto checkBoth = [](const dtmc::Model& model,
                            const std::string& property) {
    const auto build = dtmc::buildExplicit(model);
    const mc::Checker iterative(build.dtmc, model);
    mc::CheckOptions options;
    options.elimination = true;
    const mc::Checker eliminating(build.dtmc, model, options);

    const mc::CheckResult ref = iterative.check(property);
    const mc::CheckResult elim = eliminating.check(property);
    ASSERT_TRUE(elim.solver.has_value()) << property;
    EXPECT_EQ(elim.solver->solver, "elimination") << property;
    const double scale = std::max(1.0, std::abs(ref.value));
    EXPECT_NEAR(elim.value, ref.value, 1e-7 * scale) << property;
    // A default checker leaves elimination off: the reference ran the
    // iterative solver, never elimination.
    ASSERT_TRUE(ref.solver.has_value()) << property;
    EXPECT_NE(ref.solver->solver, "elimination") << property;
  };
  checkBoth(ruinModel, "P=? [ F ruin ]");
  checkBoth(rewardModel, "R=? [ F goal ]");
}

// --- engine reduction stage ---

const std::vector<std::string> kBanksProperties{
    "P=? [ F<=10 any ]",
    "R=? [ I=20 ]",
    "R=? [ C<=30 ]",
    "P=? [ G<=15 !any ]",
    "P=? [ F any ]",
    "R=? [ F any ]",
};

std::vector<double> engineValues(const engine::AnalysisResponse& response) {
  std::vector<double> values;
  values.reserve(response.results.size());
  for (const auto& r : response.results) {
    EXPECT_TRUE(r.ok()) << r.property << ": " << r.error;
    values.push_back(r.value);
  }
  return values;
}

TEST(EngineReduce, AutoThresholdSkipsSmallModels) {
  const test::SymmetricBanksModel model(8, 0.3, 0.2);  // 256 states
  engine::EngineOptions engineOptions;
  engineOptions.threads = 1;
  obs::MetricsRegistry metrics;
  engineOptions.metrics = &metrics;
  engine::AnalysisEngine eng(engineOptions);

  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = kBanksProperties;
  const auto response = eng.analyze(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_FALSE(response.reduction.applied);
  EXPECT_FALSE(response.reduction.cacheHit);
  EXPECT_EQ(response.reduction.statesBefore, 0u);
  EXPECT_EQ(eng.stats().quotientBuilds, 0u);
}

TEST(EngineReduce, ForcedQuotientAppliesAndCaches) {
  const test::SymmetricBanksModel model(8, 0.3, 0.2);  // 256 -> 9 blocks
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = kBanksProperties;

  // Unreduced reference from a reduction-off engine.
  engine::EngineOptions engineOptions;
  engineOptions.threads = 1;
  obs::MetricsRegistry referenceMetrics;
  engineOptions.metrics = &referenceMetrics;
  engine::AnalysisEngine referenceEngine(engineOptions);
  request.options.reduction.quotient = reduce::Toggle::kOff;
  const auto reference = referenceEngine.analyze(request);
  ASSERT_TRUE(reference.ok()) << reference.error;
  const std::vector<double> referenceValues = engineValues(reference);

  obs::MetricsRegistry metrics;
  engineOptions.metrics = &metrics;
  engine::AnalysisEngine eng(engineOptions);
  request.options.reduction.quotient = reduce::Toggle::kOn;

  const auto first = eng.analyze(request);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_TRUE(first.reduction.applied);
  EXPECT_FALSE(first.reduction.cacheHit);
  EXPECT_EQ(first.reduction.statesBefore, 256u);
  EXPECT_EQ(first.reduction.statesAfter, 9u);
  EXPECT_LT(first.reduction.transitionsAfter, first.reduction.transitionsBefore);
  EXPECT_GT(first.reduction.refinementRounds, 0u);
  // The response still reports the full model; the quotient lives in
  // reduction.
  EXPECT_EQ(first.states, 256u);
  // The applied 9-state quotient selects elimination for R=? [ F any ]; the
  // unreduced reference ran Gauss-Seidel. (P=? [ F any ] carries no report:
  // Prob1 answers it alone.)
  const auto solverOf = [](const engine::AnalysisResponse& response) {
    const auto& r = response.results.back();
    EXPECT_EQ(r.property, "R=? [ F any ]");
    return r.solver ? r.solver->solver : std::string("none");
  };
  EXPECT_EQ(solverOf(first), "elimination");
  EXPECT_EQ(solverOf(reference), "gauss-seidel");

  const std::vector<double> firstValues = engineValues(first);
  ASSERT_EQ(firstValues.size(), referenceValues.size());
  for (std::size_t i = 0; i < firstValues.size(); ++i) {
    // Exact by strong lumping, up to FP accumulation-order differences.
    EXPECT_NEAR(firstValues[i], referenceValues[i], 1e-9)
        << request.properties[i];
  }

  const auto second = eng.analyze(request);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_TRUE(second.reduction.applied);
  EXPECT_TRUE(second.reduction.cacheHit);
  const std::vector<double> secondValues = engineValues(second);
  for (std::size_t i = 0; i < firstValues.size(); ++i) {
    EXPECT_EQ(secondValues[i], firstValues[i]) << request.properties[i];
  }

  const auto stats = eng.stats();
  EXPECT_EQ(stats.quotientBuilds, 1u);
  EXPECT_GE(stats.quotientHits, 1u);
}

TEST(EngineReduce, IdentityQuotientRecordedButNeverApplied) {
  // A random chain with distinct rows: the plan-aware partition cannot
  // merge anything, so the quotient is the identity and the engine keeps
  // the full model — but memoizes the outcome.
  const auto model = test::randomModel(30, 3, 0xC0FFEEu);
  engine::EngineOptions engineOptions;
  engineOptions.threads = 1;
  obs::MetricsRegistry metrics;
  engineOptions.metrics = &metrics;
  engine::AnalysisEngine eng(engineOptions);

  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F target ]", "R=? [ C<=25 ]"};
  request.options.reduction.quotient = reduce::Toggle::kOn;

  const auto first = eng.analyze(request);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.reduction.applied);
  EXPECT_FALSE(first.reduction.cacheHit);
  EXPECT_EQ(first.reduction.statesBefore, 30u);
  EXPECT_EQ(first.reduction.statesAfter, 30u);

  const auto second = eng.analyze(request);
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_FALSE(second.reduction.applied);
  EXPECT_TRUE(second.reduction.cacheHit);
  EXPECT_EQ(eng.stats().quotientBuilds, 1u);

  // Identical full-model path both times: values are bitwise equal.
  const std::vector<double> a = engineValues(first);
  const std::vector<double> b = engineValues(second);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(EngineReduce, TracingOnOffByteIdentical) {
  const test::SymmetricBanksModel model(8, 0.3, 0.2);
  const auto runOnce = [&model] {
    engine::EngineOptions engineOptions;
    engineOptions.threads = 1;
    engine::AnalysisEngine eng(engineOptions);
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = kBanksProperties;
    request.options.reduction.quotient = reduce::Toggle::kOn;
    const auto response = eng.analyze(request);
    EXPECT_TRUE(response.ok()) << response.error;
    EXPECT_TRUE(response.reduction.applied);
    return engineValues(response);
  };

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.setEnabled(false);
  const std::vector<double> off = runOnce();
  tracer.setEnabled(true);
  const std::vector<double> on = runOnce();
  tracer.setEnabled(false);
  tracer.clear();

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i], on[i]) << kBanksProperties[i];
  }
}

TEST(EngineReduce, ThreadCountByteIdentical) {
  const test::SymmetricBanksModel model(8, 0.3, 0.2);
  std::vector<std::vector<double>> perThreadValues;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::EngineOptions engineOptions;
    engineOptions.threads = threads;
    engine::AnalysisEngine eng(engineOptions);
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = kBanksProperties;
    request.options.reduction.quotient = reduce::Toggle::kOn;
    const auto response = eng.analyze(request);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_TRUE(response.reduction.applied);
    perThreadValues.push_back(engineValues(response));
  }
  for (std::size_t t = 1; t < perThreadValues.size(); ++t) {
    ASSERT_EQ(perThreadValues[t].size(), perThreadValues[0].size());
    for (std::size_t i = 0; i < perThreadValues[0].size(); ++i) {
      EXPECT_EQ(perThreadValues[t][i], perThreadValues[0][i])
          << kBanksProperties[i] << " at pool size " << t;
    }
  }
}

TEST(EngineReduce, FailedStageRecordsSkipReason) {
  // An unknown variable makes the stage's mask evaluation throw: the stage
  // records why it gave up, and the checker still answers per property on
  // the full model — the broken one with its error, the other with a value.
  const test::SymmetricBanksModel model(8, 0.3, 0.2);
  engine::EngineOptions engineOptions;
  engineOptions.threads = 2;
  obs::MetricsRegistry metrics;
  engineOptions.metrics = &metrics;
  engine::AnalysisEngine eng(engineOptions);
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=10 any ]", "P=? [ F<=10 nosuch=1 ]"};
  request.options.reduction.quotient = reduce::Toggle::kOn;
  const auto response = eng.analyze(request);
  ASSERT_TRUE(response.error.empty()) << response.error;
  EXPECT_FALSE(response.reduction.applied);
  EXPECT_EQ(response.reduction.skipReason,
            "pCTL: unknown state variable 'nosuch'");
  ASSERT_EQ(response.results.size(), 2u);
  EXPECT_TRUE(response.results[0].ok()) << response.results[0].error;
  EXPECT_GT(response.results[0].value, 0.0);
  EXPECT_EQ(response.results[1].error,
            "pCTL: unknown state variable 'nosuch'");

  // A stage that succeeds records no reason.
  request.properties = {"P=? [ F<=10 any ]"};
  const auto clean = eng.analyze(request);
  ASSERT_TRUE(clean.ok()) << clean.error;
  EXPECT_TRUE(clean.reduction.applied);
  EXPECT_TRUE(clean.reduction.skipReason.empty());
}

// --- label/reward digest (satellite: cache-key extension) ---

TEST(SignatureDigest, EmptyDigestIsZero) {
  const dtmc::LabelRewardDigest digest;
  EXPECT_EQ(digest.hash(), 0u);
  EXPECT_EQ(digest.entries(), 0u);
}

TEST(SignatureDigest, OrderIndependent) {
  la::BitVector a(10);
  a.set(3);
  la::BitVector b(10);
  b.set(7);
  const std::vector<double> r{1.0, 2.0, 3.0};

  dtmc::LabelRewardDigest forward;
  forward.addMask(11, a);
  forward.addMask(22, b);
  forward.addReward("time", r);

  dtmc::LabelRewardDigest backward;
  backward.addReward("time", r);
  backward.addMask(22, b);
  backward.addMask(11, a);

  EXPECT_EQ(forward.hash(), backward.hash());
  EXPECT_EQ(forward.entries(), 3u);
}

TEST(SignatureDigest, DistinguishesContentFormulaAndName) {
  la::BitVector a(10);
  a.set(3);
  la::BitVector flipped(10);
  flipped.set(4);

  dtmc::LabelRewardDigest base;
  base.addMask(11, a);

  dtmc::LabelRewardDigest differentBits;
  differentBits.addMask(11, flipped);
  EXPECT_NE(base.hash(), differentBits.hash());

  // Same truth bits under a different formula are a different plan need.
  dtmc::LabelRewardDigest differentFormula;
  differentFormula.addMask(12, a);
  EXPECT_NE(base.hash(), differentFormula.hash());

  // Same words, different bit length (all-zero tails share bytes).
  la::BitVector short10(10);
  la::BitVector long12(12);
  dtmc::LabelRewardDigest shortDigest;
  shortDigest.addMask(11, short10);
  dtmc::LabelRewardDigest longDigest;
  longDigest.addMask(11, long12);
  EXPECT_NE(shortDigest.hash(), longDigest.hash());

  const std::vector<double> r{1.0, 2.0};
  dtmc::LabelRewardDigest namedA;
  namedA.addReward("time", r);
  dtmc::LabelRewardDigest namedB;
  namedB.addReward("energy", r);
  EXPECT_NE(namedA.hash(), namedB.hash());

  dtmc::LabelRewardDigest otherValues;
  otherValues.addReward("time", {1.0, 2.5});
  EXPECT_NE(namedA.hash(), otherValues.hash());
}

TEST(SignatureDigest, EqualInputsCollide) {
  // Two independently built digests over equal inputs must agree — that is
  // the quotient-cache sharing contract across requests.
  const auto model = test::randomModel(16, 2, 42);
  const auto build = dtmc::buildExplicit(model);
  const la::BitVector mask = build.dtmc.evalAtom(model, "target");
  const std::vector<double> reward = build.dtmc.evalReward(model, "");

  dtmc::LabelRewardDigest first;
  first.addMask(77, mask);
  first.addReward("", reward);
  dtmc::LabelRewardDigest second;
  second.addMask(77, mask);
  second.addReward("", reward);
  EXPECT_EQ(first.hash(), second.hash());
}

}  // namespace
}  // namespace mimostat
