#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "legacy_loops.hpp"
#include "mc/checker.hpp"
#include "mc/transient.hpp"
#include "test_models.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

// Closed form for the two-state chain with P(0->1)=a, P(1->0)=b starting in
// state 0: pi_t(1) = a/(a+b) * (1 - (1-a-b)^t).
double twoStateP1(double a, double b, std::uint64_t t) {
  return a / (a + b) * (1.0 - std::pow(1.0 - a - b, static_cast<double>(t)));
}

/// pi_t by a fresh sweep.
std::vector<double> sweepDistribution(const dtmc::ExplicitDtmc& d,
                                      std::uint64_t t) {
  mc::TransientSweep sweep(d);
  sweep.advanceTo(t);
  return sweep.distribution();
}

/// The default reward query's value through mc::Checker.
double checkValue(const dtmc::ExplicitDtmc& d, const dtmc::Model& model,
                  const std::string& property) {
  return mc::Checker(d, model).check(property).value;
}

TEST(Transient, TwoStateClosedForm) {
  const double a = 0.3;
  const double b = 0.4;
  const auto model = test::twoStateChain(a, b);
  const auto d = dtmc::buildExplicit(model).dtmc;
  for (const std::uint64_t t : {0ULL, 1ULL, 2ULL, 5ULL, 20ULL, 100ULL}) {
    const auto pi = sweepDistribution(d, t);
    EXPECT_NEAR(pi[1], twoStateP1(a, b, t), 1e-12) << "t=" << t;
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
  }
}

TEST(Transient, DistributionStaysNormalized) {
  const auto model = test::randomModel(30, 4, 99);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto pi = sweepDistribution(d, 50);
  double total = 0.0;
  for (const double p : pi) total += p;
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Transient, InstantaneousRewardMatchesDistribution) {
  auto model = test::twoStateChain(0.2, 0.1);
  model.withRewards({0.0, 1.0});  // indicator of state 1
  const auto d = dtmc::buildExplicit(model).dtmc;
  for (const std::uint64_t t : {1ULL, 3ULL, 10ULL}) {
    EXPECT_NEAR(checkValue(d, model, "R=? [ I=" + std::to_string(t) + " ]"),
                twoStateP1(0.2, 0.1, t), 1e-12);
  }
}

TEST(Transient, CumulativeIsSumOfInstantaneous) {
  const auto model = test::randomModel(15, 3, 5);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const std::uint64_t horizon = 12;
  double manual = 0.0;
  for (std::uint64_t t = 0; t < horizon; ++t) {
    manual += checkValue(d, model, "R=? [ I=" + std::to_string(t) + " ]");
  }
  EXPECT_NEAR(checkValue(d, model, "R=? [ C<=12 ]"), manual, 1e-10);
}

TEST(Transient, SeriesMatchesPointQueries) {
  // One sweep sampled at every step answers each I=t point query.
  auto model = test::twoStateChain(0.25, 0.15);
  model.withRewards({0.0, 1.0});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const std::vector<double> reward{0.0, 1.0};
  mc::TransientSweep sweep(d);
  for (std::uint64_t t = 0; t <= 20; ++t) {
    sweep.advanceTo(t);
    EXPECT_NEAR(sweep.expectedReward(reward),
                checkValue(d, model, "R=? [ I=" + std::to_string(t) + " ]"),
                1e-12);
  }
}

TEST(Transient, SteadyDetectionConvergesToStationaryReward) {
  const double a = 0.3;
  const double b = 0.4;
  const auto model = test::twoStateChain(a, b);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const std::vector<double> reward{0.0, 1.0};
  const auto det = mc::detectRewardSteadyState(d, reward, 1e-12, 8, 10000);
  EXPECT_TRUE(det.converged);
  EXPECT_NEAR(det.value, a / (a + b), 1e-9);
}

TEST(Transient, SteadyDetectionFailsOnPeriodicChain) {
  const auto model = test::cycleModel(3);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const std::vector<double> reward{1.0, 0.0, 0.0};
  const auto det = mc::detectRewardSteadyState(d, reward, 1e-9, 8, 200);
  EXPECT_FALSE(det.converged);  // reward oscillates 1,0,0,1,0,0,...
}

TEST(Transient, SteadyDetectionWithZeroStepsReportsInitialReward) {
  // maxSteps = 0 runs no step: the answer is the t=0 reward pi_0 . r, not
  // an unset 0.0.
  auto model = test::twoStateChain(0.3, 0.4);
  model.withRewards({0.25, 1.0});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto reward = d.evalReward(model, "");
  const auto det = mc::detectRewardSteadyState(d, reward, 1e-12, 8, 0);
  EXPECT_FALSE(det.converged);
  EXPECT_EQ(det.step, 0u);
  EXPECT_EQ(det.value, 0.25);
}

TEST(Transient, ZeroStepsReturnsInitialDistribution) {
  const auto model = test::gamblersRuin(4, 0.5, 2);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto pi = sweepDistribution(d, 0);
  EXPECT_NEAR(pi[0], 1.0, 1e-15);  // BFS index 0 = initial state
}

// ------------------------------------------------ stationary stop vs oracle
//
// The oracle is the verbatim legacy scatter loop (legacy_loops.hpp),
// sequential, with no fixed-point exit: pi_{t+1} = pi_t P for every t, and
// pi_t . r summed left to right. Every sweep-side value must equal it bit
// for bit, at 1 and 4 workers.

using test::legacyCumulative;
using test::legacyInstantaneous;
using test::legacyPropagate;

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Pool exec with the parallel threshold at 1 nnz, so even the tiny test
/// chains fan out over the workers.
la::Exec poolExec(engine::ThreadPool& pool) {
  la::Exec exec;
  exec.runner = engine::laRunnerFor(pool);
  exec.parallelThresholdNnz = 1;
  return exec;
}

/// Checker over `properties` on `d`: values in order, plus the plan stats.
std::vector<double> checkAllValues(const dtmc::ExplicitDtmc& d,
                                   const dtmc::Model& model,
                                   const std::vector<std::string>& properties,
                                   const la::Exec& exec,
                                   pctl::PlanStats& stats) {
  mc::CheckOptions options;
  options.exec = exec;
  const mc::Checker checker(d, model, options);
  std::vector<pctl::Property> parsed;
  for (const auto& text : properties) {
    parsed.push_back(checker.parsedProperty(text));
  }
  std::vector<double> values;
  for (const auto& result : checker.checkAll(parsed, &stats)) {
    EXPECT_TRUE(result.ok()) << result.error;
    values.push_back(result.value);
  }
  return values;
}

constexpr std::size_t kWorkerCounts[] = {1, 4};

TEST(TransientStop, TwoStateChainStopsAfter33MultipliesMatchingOracle) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withRewards({0.0, 1.0});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto reward = d.evalReward(model, "");
  const std::uint64_t horizons[] = {32, 33, 34, 500};

  for (const std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    engine::ThreadPool pool(workers);
    const la::Exec exec = poolExec(pool);

    // The raw fixed point: pi_33 == pi_32 bit for bit, pi_32 != pi_31.
    const auto pi31 = legacyPropagate(d, d.initialDistribution(), 31);
    const auto pi32 = legacyPropagate(d, pi31, 1);
    EXPECT_FALSE(bitEqual(pi31, pi32));
    EXPECT_TRUE(bitEqual(pi32, legacyPropagate(d, pi32, 1)));

    mc::TransientSweep solo(d, exec);
    solo.advanceTo(32);
    EXPECT_FALSE(solo.stationary());
    EXPECT_EQ(solo.multiplies(), 32u);
    for (const std::uint64_t t : horizons) {
      solo.advanceTo(t);
      EXPECT_EQ(solo.step(), t);
      EXPECT_EQ(solo.expectedReward(reward), legacyInstantaneous(d, reward, t))
          << "I=" << t;
      EXPECT_TRUE(bitEqual(solo.distribution(),
                           legacyPropagate(d, d.initialDistribution(), t)))
          << "t=" << t;
    }
    EXPECT_TRUE(solo.stationary());
    EXPECT_EQ(solo.multiplies(), 33u);

    // Checker: one plan, instantaneous and cumulative entries together.
    std::vector<std::string> properties;
    std::vector<double> expected;
    for (const std::uint64_t t : horizons) {
      properties.push_back("R=? [ I=" + std::to_string(t) + " ]");
      expected.push_back(legacyInstantaneous(d, reward, t));
      properties.push_back("R=? [ C<=" + std::to_string(t) + " ]");
      expected.push_back(legacyCumulative(d, reward, t));
    }
    pctl::PlanStats stats;
    const auto values = checkAllValues(d, model, properties, exec, stats);
    for (std::size_t i = 0; i < properties.size(); ++i) {
      EXPECT_EQ(values[i], expected[i]) << properties[i];
    }
    EXPECT_EQ(stats.transientMultiplies, 33u);
  }
}

TEST(TransientStop, PeriodicChainMultipliesEveryStep) {
  auto model = test::cycleModel(3);
  model.withRewards({1.0, 0.0, 0.0});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto reward = d.evalReward(model, "");
  for (const std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    engine::ThreadPool pool(workers);
    const la::Exec exec = poolExec(pool);

    mc::TransientSweep sweep(d, exec);
    for (const std::uint64_t t : {1ULL, 2ULL, 3ULL, 100ULL, 301ULL}) {
      sweep.advanceTo(t);
      EXPECT_FALSE(sweep.stationary());
      EXPECT_EQ(sweep.multiplies(), t);
      EXPECT_EQ(sweep.expectedReward(reward),
                legacyInstantaneous(d, reward, t))
          << "I=" << t;
      pctl::PlanStats stats;
      const std::string cumulative = "R=? [ C<=" + std::to_string(t) + " ]";
      EXPECT_EQ(checkAllValues(d, model, {cumulative}, exec, stats)[0],
                legacyCumulative(d, reward, t))
          << cumulative;
    }

    const std::vector<std::string> properties{
        "R=? [ I=100 ]", "R=? [ I=301 ]", "R=? [ C<=200 ]"};
    pctl::PlanStats stats;
    const auto values = checkAllValues(d, model, properties, exec, stats);
    EXPECT_EQ(values[0], legacyInstantaneous(d, reward, 100));
    EXPECT_EQ(values[1], legacyInstantaneous(d, reward, 301));
    EXPECT_EQ(values[2], legacyCumulative(d, reward, 200));
    EXPECT_EQ(stats.transientMultiplies, 301u);
  }
}

TEST(TransientStop, TrillionStepHorizonAnswersFromTheFixedPoint) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withRewards({0.0, 1.0});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto reward = d.evalReward(model, "");
  for (const std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    engine::ThreadPool pool(workers);
    const auto start = std::chrono::steady_clock::now();
    pctl::PlanStats stats;
    const auto values = checkAllValues(
        d, model, {"R=? [ I=1000000000000 ]"}, poolExec(pool), stats);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_EQ(values.size(), 1u);
    EXPECT_EQ(values[0], legacyInstantaneous(d, reward, 33));
    EXPECT_EQ(stats.transientMultiplies, 33u);
    EXPECT_LT(seconds, 1.0);

    // A bare sweep jumps the same way.
    mc::TransientSweep sweep(d, poolExec(pool));
    sweep.advanceTo(1'000'000'000'000ULL);
    EXPECT_EQ(sweep.multiplies(), 33u);
    EXPECT_EQ(sweep.expectedReward(reward), values[0]);
  }
}

TEST(TransientStop, ReducedViterbiL6TableSetMatchesOracle) {
  viterbi::ViterbiParams params;  // L=6, 5 dB: Tables I/III
  const viterbi::ReducedViterbiModel model(params);
  const auto build = dtmc::buildExplicit(model);
  const auto reward = build.dtmc.evalReward(model, "");
  const std::vector<std::uint64_t> horizons{100, 300, 600, 1000};
  std::vector<std::string> properties{"P=? [ G<=300 !flag ]"};
  for (const std::uint64_t t : horizons) {
    properties.push_back("R=? [ I=" + std::to_string(t) + " ]");
  }
  properties.push_back("R=? [ C<=300 ]");

  for (const std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    engine::EngineOptions options;
    options.threads = workers;
    engine::AnalysisEngine eng(options);
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = properties;
    request.options.check.exec.parallelThresholdNnz = 1;
    // Bitwise against the unreduced oracle: the 1,300-pass plan would
    // quotient under kAuto.
    request.options.reduction.quotient = reduce::Toggle::kOff;
    const auto response = eng.analyze(request);
    ASSERT_EQ(response.results.size(), properties.size());
    for (const auto& result : response.results) {
      ASSERT_TRUE(result.ok()) << result.error;
    }
    for (std::size_t i = 0; i < horizons.size(); ++i) {
      EXPECT_EQ(response.results[i + 1].value,
                legacyInstantaneous(build.dtmc, reward, horizons[i]))
          << properties[i + 1];
    }
    EXPECT_EQ(response.results.back().value,
              legacyCumulative(build.dtmc, reward, 300));
    EXPECT_GT(response.plan.transientMultiplies, 0u);
    EXPECT_LT(response.plan.transientMultiplies, 300u);

    // The auto path quotients and stays within the reduction tolerance.
    request.options.reduction.quotient = reduce::Toggle::kAuto;
    const auto reduced = eng.analyze(request);
    EXPECT_TRUE(reduced.reduction.applied);
    ASSERT_EQ(reduced.results.size(), properties.size());
    for (const auto& result : reduced.results) {
      ASSERT_TRUE(result.ok()) << result.error;
    }
    for (std::size_t i = 0; i < horizons.size(); ++i) {
      EXPECT_NEAR(reduced.results[i + 1].value,
                  legacyInstantaneous(build.dtmc, reward, horizons[i]), 1e-9)
          << properties[i + 1];
    }
    EXPECT_NEAR(reduced.results.back().value,
                legacyCumulative(build.dtmc, reward, 300), 1e-9);
  }
}

}  // namespace
}  // namespace mimostat
