#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "dtmc/builder.hpp"
#include "legacy_loops.hpp"
#include "mc/checker.hpp"
#include "mc/transient.hpp"
#include "mimo/model.hpp"
#include "smc/smc.hpp"
#include "test_models.hpp"
#include "viterbi/model_convergence.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

/// Runs chunk tasks in reverse order on ad-hoc threads — an adversarial
/// TaskRunner for the determinism contract (merge order must not depend on
/// execution order).
void reverseThreadedRunner(std::vector<std::function<void()>> tasks) {
  // lint:allow(raw-thread: adversarial runner exercises the merge contract)
  std::vector<std::thread> threads;
  threads.reserve(tasks.size());
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) {
    threads.emplace_back(std::move(*it));
  }
  for (auto& t : threads) t.join();
}

TEST(Smc, StateFormulaEvaluation) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1});
  const auto layout = model.layout();
  const auto f = pctl::parseStateFormula("!\"one\" & s=0");
  EXPECT_TRUE(smc::evalStateFormula(model, layout, {0}, *f));
  EXPECT_FALSE(smc::evalStateFormula(model, layout, {1}, *f));
}

TEST(Smc, SamplerIsDeterministicPerSeed) {
  const auto model = test::randomModel(20, 3, 9);
  smc::PathSampler a(model, 42);
  smc::PathSampler b(model, 42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.step(), b.step());
  }
}

/// The path sampler's loop as it was before the successor sink: a
/// State-vector row per step, normalized and walked by one uniform draw.
/// The row is collected through a packed sink and unpacked.
class VerbatimSampler {
 public:
  VerbatimSampler(const dtmc::Model& model, std::uint64_t seed)
      : model_(model), layout_(model.layout()), rng_(seed), sink_(layout_) {
    reset();
  }
  const dtmc::State& reset() {
    const std::vector<dtmc::State> initial = model_.initialStates();
    state_ = initial[rng_.nextBounded(initial.size())];
    return state_;
  }
  const dtmc::State& step() {
    std::vector<test::Transition>& row = row_;
    test::collectTransitions(model_, layout_, state_, sink_, row);
    if (row.empty()) return state_;  // transition-less state: absorbing
    const double mass = test::normalizeTransitions(row, 0.0);
    double u = rng_.nextDouble() * mass;
    for (const auto& t : row) {
      u -= t.prob;
      if (u <= 0.0) {
        state_ = t.target;
        return state_;
      }
    }
    state_ = row.back().target;  // numeric tail
    return state_;
  }
  [[nodiscard]] const dtmc::State& state() const { return state_; }

 private:
  const dtmc::Model& model_;
  const dtmc::VarLayout layout_;
  util::Xoshiro256 rng_;
  dtmc::State state_;
  dtmc::Successors sink_;
  std::vector<test::Transition> row_;
};

/// 10,000 steps per seed: PathSampler walks the verbatim sampler's path.
void expectVerbatimPaths(const dtmc::Model& model) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    smc::PathSampler sampler(model, seed);
    VerbatimSampler verbatim(model, seed);
    ASSERT_EQ(sampler.state(), verbatim.state());
    ASSERT_EQ(sampler.reset(), verbatim.reset());
    for (int t = 0; t < 10'000; ++t) {
      ASSERT_EQ(sampler.step(), verbatim.step()) << "step " << t;
    }
  }
}

TEST(Smc, SamplerWalksTheVerbatimPath) {
  mimo::MimoParams mimoParams;  // test-sized 1x2
  mimoParams.hLevels = 2;
  mimoParams.hRange = 1.2;
  mimoParams.yLevels = 3;
  mimoParams.yRange = 1.8;
  {
    SCOPED_TRACE("MIMO 1x2");
    expectVerbatimPaths(mimo::MimoDetectorModel(mimoParams));
  }
  {
    SCOPED_TRACE("reduced Viterbi");
    expectVerbatimPaths(viterbi::ReducedViterbiModel(viterbi::ViterbiParams{}));
  }
}

TEST(Smc, SamplerRejectsLayoutsWiderThan64Bits) {
  const test::WideModel model;
  EXPECT_THROW((void)smc::PathSampler(model, 1), std::invalid_argument);
  smc::SmcOptions options;
  options.paths = 10;
  EXPECT_THROW((void)smc::estimateProperty(model, "P=? [ F<=3 a=8 ]", options),
               std::invalid_argument);
}

TEST(Smc, EstimateMatchesExactChecker) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1}).withRewards({0.0, 1.0});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);

  smc::SmcOptions options;
  options.paths = 40'000;
  options.seed = 7;
  for (const auto* prop : {"P=? [ F<=5 \"one\" ]", "P=? [ G<=5 !\"one\" ]",
                           "P=? [ !\"one\" U<=8 \"one\" ]",
                           "P=? [ X \"one\" ]"}) {
    const double exact = checker.check(prop).value;
    const auto estimate = smc::estimateProperty(model, prop, options);
    const auto interval = estimate.satisfied.wilson(0.999);
    EXPECT_TRUE(interval.contains(exact))
        << prop << ": exact " << exact << " interval [" << interval.low
        << ", " << interval.high << "]";
  }
}

TEST(Smc, InstantaneousRewardEstimate) {
  auto model = test::twoStateChain(0.25, 0.4);
  model.withRewards({0.0, 1.0});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const double exact = checker.check("R=? [ I=12 ]").value;

  smc::SmcOptions options;
  options.paths = 40'000;
  options.seed = 3;
  const auto stats = smc::estimateInstantaneousReward(model, 12, "", options);
  EXPECT_NEAR(stats.mean(), exact, 4.0 * stats.standardError() + 1e-6);
}

TEST(Smc, UnboundedFormulaRejected) {
  const auto model = test::twoStateChain(0.3, 0.4);
  smc::SmcOptions options;
  options.paths = 10;
  EXPECT_THROW(static_cast<void>(
                   smc::estimateProperty(model, "P=? [ F s=1 ]", options)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(
                   smc::estimateProperty(model, "R=? [ I=5 ]", options)),
               std::invalid_argument);
}

TEST(Smc, TransitionlessStateIsAbsorbing) {
  // Regression: a state without outgoing transitions used to read
  // scratch_.back() on an empty vector (UB). It must act as a self-loop.
  test::MatrixModel model({{0.0, 1.0}, {0.0, 0.0}});  // state 1 is a dead end
  smc::PathSampler sampler(model, 3);
  sampler.reset();
  EXPECT_EQ(sampler.state()[0], 0);
  EXPECT_EQ(sampler.step()[0], 1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(sampler.step()[0], 1);  // absorbed
  }

  smc::SmcOptions options;
  options.paths = 200;
  const auto estimate =
      smc::estimateProperty(model, "P=? [ F<=4 s=1 ]", options);
  EXPECT_EQ(estimate.estimate(), 1.0);
  const auto globally =
      smc::estimateProperty(model, "P=? [ G<=10 s<=1 ]", options);
  EXPECT_EQ(globally.estimate(), 1.0);
}

TEST(Smc, DeriveSeedSeparatesStreams) {
  // Derived seeds must differ across streams and across base seeds, and be
  // a pure function of both.
  EXPECT_EQ(smc::deriveSeed(1, 0), smc::deriveSeed(1, 0));
  EXPECT_NE(smc::deriveSeed(1, 0), smc::deriveSeed(1, 1));
  EXPECT_NE(smc::deriveSeed(1, 0), smc::deriveSeed(2, 0));
  // Streams derived from consecutive seeds should not collide either.
  EXPECT_NE(smc::deriveSeed(1, 1), smc::deriveSeed(2, 0));

  // Samplers on distinct derived streams decorrelate: their state sequences
  // diverge (deterministically, so this cannot flake).
  const auto model = test::randomModel(20, 3, 9);
  smc::PathSampler a(model, smc::deriveSeed(7, 0));
  smc::PathSampler b(model, smc::deriveSeed(7, 1));
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.step() != b.step()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Smc, CumulativeRewardMatchesExact) {
  auto model = test::twoStateChain(0.25, 0.4);
  model.withRewards({0.0, 1.0});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const double exact = checker.check("R=? [ C<=25 ]").value;

  smc::SmcOptions options;
  options.paths = 40'000;
  options.seed = 9;
  const auto stats = smc::estimateCumulativeReward(model, 25, "", options);
  EXPECT_EQ(stats.count(), options.paths);
  EXPECT_NEAR(stats.mean(), exact, 4.0 * stats.standardError() + 1e-6);
}

TEST(Smc, CumulativeRewardZeroHorizonIsZero) {
  auto model = test::twoStateChain(0.25, 0.4);
  model.withRewards({1.0, 1.0});
  smc::SmcOptions options;
  options.paths = 100;
  const auto stats = smc::estimateCumulativeReward(model, 0, "", options);
  EXPECT_EQ(stats.mean(), 0.0);
  const auto one = smc::estimateCumulativeReward(model, 1, "", options);
  EXPECT_EQ(one.mean(), 1.0);  // reward collected in s_0 only
}

TEST(Smc, CumulativeRewardWithinCiOnViterbiModels) {
  // Table III model (reduced Viterbi) and Table IV model (convergence):
  // sampled R=?[C<=T] must bracket the exact transient sum.
  viterbi::ViterbiParams params;
  params.tracebackLength = 3;
  const viterbi::ReducedViterbiModel table3(params);
  const viterbi::ConvergenceViterbiModel table4(params, /*maxCount=*/4);
  const dtmc::Model* models[] = {&table3, &table4};
  for (const dtmc::Model* model : models) {
    const auto d = dtmc::buildExplicit(*model).dtmc;
    const mc::Checker checker(d, *model);
    const double exact = checker.check("R=? [ C<=30 ]").value;
    smc::SmcOptions options;
    options.paths = 20'000;
    options.seed = 21;
    const auto stats = smc::estimateCumulativeReward(*model, 30, "", options);
    EXPECT_NEAR(stats.mean(), exact, 4.0 * stats.standardError() + 1e-9)
        << "exact " << exact << " mean " << stats.mean();
  }
}

TEST(Smc, ChunkedEstimatesAreRunnerInvariant) {
  // The determinism contract: for a fixed seed the result is bit-identical
  // whether chunks run serially, or threaded in reverse order.
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1}).withRewards({0.0, 1.0});
  smc::SmcOptions options;
  options.paths = 5'000;
  options.seed = 13;
  options.chunkPaths = 512;  // 10 chunks

  const auto serialP =
      smc::estimateProperty(model, "P=? [ F<=5 \"one\" ]", options);
  const auto threadedP = smc::estimateProperty(
      model, "P=? [ F<=5 \"one\" ]", options, reverseThreadedRunner);
  EXPECT_EQ(serialP.satisfied.trials(), threadedP.satisfied.trials());
  EXPECT_EQ(serialP.satisfied.successes(), threadedP.satisfied.successes());

  const auto serialI = smc::estimateInstantaneousReward(model, 12, "", options);
  const auto threadedI = smc::estimateInstantaneousReward(
      model, 12, "", options, reverseThreadedRunner);
  EXPECT_EQ(serialI.mean(), threadedI.mean());
  EXPECT_EQ(serialI.variance(), threadedI.variance());

  const auto serialC = smc::estimateCumulativeReward(model, 12, "", options);
  const auto threadedC = smc::estimateCumulativeReward(
      model, 12, "", options, reverseThreadedRunner);
  EXPECT_EQ(serialC.mean(), threadedC.mean());
  EXPECT_EQ(serialC.variance(), threadedC.variance());
}

TEST(Smc, SprtIsDeterministicPerSeed) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1});
  smc::SprtOptions options;
  options.indifference = 0.02;
  options.seed = 31;
  const auto a = smc::testProperty(model, "P>=0.8 [ F<=5 \"one\" ]", options);
  const auto b = smc::testProperty(model, "P>=0.8 [ F<=5 \"one\" ]", options);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.pathsUsed, b.pathsUsed);
  EXPECT_EQ(a.observed.successes(), b.observed.successes());
  EXPECT_EQ(a.observed.trials(), a.pathsUsed);
  EXPECT_GT(a.indifference, 0.0);
}

TEST(Smc, SprtAcceptsTrueClaim) {
  // P(F<=5 one) ~ 0.832 for a=0.3,b=0.4; test a clearly-true claim.
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1});
  smc::SprtOptions options;
  options.indifference = 0.05;
  options.seed = 5;
  const auto outcome =
      smc::testProperty(model, "P>=0.6 [ F<=5 \"one\" ]", options);
  EXPECT_NE(outcome.decision, stats::SprtDecision::kContinue);
  EXPECT_TRUE(outcome.holds);
  EXPECT_GT(outcome.pathsUsed, 0u);
}

TEST(Smc, SprtRejectsFalseClaim) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1});
  smc::SprtOptions options;
  options.indifference = 0.05;
  options.seed = 6;
  const auto outcome =
      smc::testProperty(model, "P>=0.95 [ F<=5 \"one\" ]", options);
  EXPECT_NE(outcome.decision, stats::SprtDecision::kContinue);
  EXPECT_FALSE(outcome.holds);
}

TEST(Smc, SprtUpperBoundClaims) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1});
  smc::SprtOptions options;
  options.indifference = 0.05;
  options.seed = 8;
  const auto holds =
      smc::testProperty(model, "P<=0.9 [ F<=5 \"one\" ]", options);
  EXPECT_TRUE(holds.holds);
  const auto fails =
      smc::testProperty(model, "P<=0.5 [ F<=5 \"one\" ]", options);
  EXPECT_FALSE(fails.holds);
}

TEST(Smc, SprtNeedsFewerPathsFartherFromThreshold) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1});
  smc::SprtOptions options;
  options.indifference = 0.02;
  options.seed = 11;
  const auto far = smc::testProperty(model, "P>=0.3 [ F<=5 \"one\" ]", options);
  const auto near =
      smc::testProperty(model, "P>=0.8 [ F<=5 \"one\" ]", options);
  // True probability ~0.832: the 0.3 threshold is far (quick accept), the
  // 0.8 threshold is close (more samples).
  EXPECT_LT(far.pathsUsed, near.pathsUsed);
}

TEST(Smc, AgreesWithExactCheckerOnViterbi) {
  // End-to-end on a real case-study model: SMC brackets the exact P1.
  viterbi::ViterbiParams params;
  params.tracebackLength = 3;
  const viterbi::ReducedViterbiModel model(params);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const double exact = checker.check("P=? [ G<=20 !flag ]").value;

  smc::SmcOptions options;
  options.paths = 20'000;
  options.seed = 12;
  const auto estimate =
      smc::estimateProperty(model, "P=? [ G<=20 !flag ]", options);
  EXPECT_TRUE(estimate.satisfied.wilson(0.999).contains(exact))
      << "exact " << exact << " est " << estimate.estimate();
}

}  // namespace
}  // namespace mimostat
