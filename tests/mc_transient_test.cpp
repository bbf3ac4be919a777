#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "la/spmv.hpp"
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

TEST(Transient, TwoStateClosedForm) {
  const double a = 0.3;
  const double b = 0.4;
  const auto model = test::twoStateChain(a, b);
  const auto d = dtmc::buildExplicit(model).dtmc;
  for (const std::uint64_t t : {0ULL, 1ULL, 2ULL, 5ULL, 20ULL, 100ULL}) {
    const auto pi = mc::transientDistribution(d, t);
    EXPECT_NEAR(pi[1], twoStateP1(a, b, t), 1e-12) << "t=" << t;
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
  }
}

TEST(Transient, DistributionStaysNormalized) {
  const auto model = test::randomModel(30, 4, 99);
  const auto d = dtmc::buildExplicit(model).dtmc;
  auto pi = mc::transientDistribution(d, 50);
  double total = 0.0;
  for (const double p : pi) total += p;
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Transient, InstantaneousRewardMatchesDistribution) {
  const auto model = test::twoStateChain(0.2, 0.1);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const std::vector<double> reward{0.0, 1.0};  // indicator of state 1
  for (const std::uint64_t t : {1ULL, 3ULL, 10ULL}) {
    EXPECT_NEAR(mc::instantaneousReward(d, reward, t),
                twoStateP1(0.2, 0.1, t), 1e-12);
  }
}

TEST(Transient, CumulativeIsSumOfInstantaneous) {
  const auto model = test::randomModel(15, 3, 5);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto reward = d.evalReward(model, "");
  const std::uint64_t horizon = 12;
  double manual = 0.0;
  for (std::uint64_t t = 0; t < horizon; ++t) {
    manual += mc::instantaneousReward(d, reward, t);
  }
  EXPECT_NEAR(mc::cumulativeReward(d, reward, horizon), manual, 1e-10);
}

TEST(Transient, SeriesMatchesPointQueries) {
  const auto model = test::twoStateChain(0.25, 0.15);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const std::vector<double> reward{0.0, 1.0};
  const auto series = mc::instantaneousRewardSeries(d, reward, 20);
  ASSERT_EQ(series.size(), 21u);
  for (std::uint64_t t = 0; t <= 20; ++t) {
    EXPECT_NEAR(series[t], mc::instantaneousReward(d, reward, t), 1e-12);
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
  const auto pi = mc::transientDistribution(d, 0);
  EXPECT_NEAR(pi[0], 1.0, 1e-15);  // BFS index 0 = initial state
}

// ------------------------------------------------ stationary stop vs oracle
//
// The oracle is a raw la::spmvLeft loop, sequential, with no fixed-point
// exit: pi_{t+1} = pi_t P for every t, and pi_t . r summed left to right.
// Every sweep-side value must equal it bit for bit, at 1 and 4 workers.

std::vector<double> oracleDistribution(const dtmc::ExplicitDtmc& d,
                                       std::vector<double> pi,
                                       std::uint64_t steps) {
  std::vector<double> next(pi.size());
  for (std::uint64_t t = 0; t < steps; ++t) {
    la::spmvLeft(d.matrix(), pi, next);
    pi.swap(next);
  }
  return pi;
}

double oracleDot(const std::vector<double>& pi,
                 const std::vector<double>& reward) {
  double acc = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) acc += pi[s] * reward[s];
  return acc;
}

double oracleInstantaneous(const dtmc::ExplicitDtmc& d,
                           const std::vector<double>& reward,
                           std::uint64_t steps) {
  return oracleDot(oracleDistribution(d, d.initialDistribution(), steps),
                   reward);
}

double oracleCumulative(const dtmc::ExplicitDtmc& d,
                        const std::vector<double>& reward,
                        std::uint64_t steps) {
  std::vector<double> pi = d.initialDistribution();
  double total = 0.0;
  for (std::uint64_t t = 0; t < steps; ++t) {
    total += oracleDot(pi, reward);
    pi = oracleDistribution(d, std::move(pi), 1);
  }
  return total;
}

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

std::vector<double> unitVector(std::size_t n, std::size_t at) {
  std::vector<double> e(n, 0.0);
  e[at] = 1.0;
  return e;
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
  // Three starts: pi_0 = e0, e1 and an even mix.
  const std::vector<std::vector<double>> starts{
      d.initialDistribution(), unitVector(2, 1), {0.5, 0.5}};

  for (const std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    engine::ThreadPool pool(workers);
    const la::Exec exec = poolExec(pool);

    // The raw fixed point: pi_33 == pi_32 bit for bit, pi_32 != pi_31.
    const auto pi31 = oracleDistribution(d, d.initialDistribution(), 31);
    const auto pi32 = oracleDistribution(d, pi31, 1);
    EXPECT_FALSE(bitEqual(pi31, pi32));
    EXPECT_TRUE(bitEqual(pi32, oracleDistribution(d, pi32, 1)));

    mc::TransientSweep solo(d, exec);
    solo.advanceTo(32);
    EXPECT_FALSE(solo.stationary());
    EXPECT_EQ(solo.multiplies(), 32u);
    for (const std::uint64_t t : horizons) {
      solo.advanceTo(t);
      EXPECT_EQ(solo.step(), t);
      EXPECT_EQ(solo.expectedReward(reward), oracleInstantaneous(d, reward, t))
          << "I=" << t;
      EXPECT_TRUE(bitEqual(solo.distribution(),
                           oracleDistribution(d, d.initialDistribution(), t)))
          << "t=" << t;
      EXPECT_EQ(mc::cumulativeReward(d, reward, t, exec),
                oracleCumulative(d, reward, t))
          << "C<=" << t;
    }
    EXPECT_TRUE(solo.stationary());
    EXPECT_EQ(solo.multiplies(), 33u);

    // 3-vector tile: stationary only once every column is, and each
    // column still equals its own oracle.
    mc::TransientSweep tile(d, starts, exec);
    std::uint64_t soloStops = 0;
    for (const auto& start : starts) {
      mc::TransientSweep one(d, {start}, exec);
      one.advanceTo(500);
      EXPECT_TRUE(one.stationary());
      soloStops = std::max(soloStops, one.multiplies());
    }
    for (const std::uint64_t t : horizons) {
      tile.advanceTo(t);
      for (std::size_t j = 0; j < starts.size(); ++j) {
        EXPECT_EQ(tile.expectedRewardAt(j, reward),
                  oracleDot(oracleDistribution(d, starts[j], t), reward))
            << "I=" << t << " column " << j;
      }
    }
    EXPECT_TRUE(tile.stationary());
    EXPECT_GE(tile.multiplies(), 33u);
    EXPECT_EQ(tile.multiplies(), soloStops);

    // Checker: one plan, instantaneous and cumulative entries together.
    std::vector<std::string> properties;
    std::vector<double> expected;
    for (const std::uint64_t t : horizons) {
      properties.push_back("R=? [ I=" + std::to_string(t) + " ]");
      expected.push_back(oracleInstantaneous(d, reward, t));
      properties.push_back("R=? [ C<=" + std::to_string(t) + " ]");
      expected.push_back(oracleCumulative(d, reward, t));
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
                oracleInstantaneous(d, reward, t))
          << "I=" << t;
      EXPECT_EQ(mc::cumulativeReward(d, reward, t, exec),
                oracleCumulative(d, reward, t))
          << "C<=" << t;
    }

    const std::vector<std::string> properties{
        "R=? [ I=100 ]", "R=? [ I=301 ]", "R=? [ C<=200 ]"};
    pctl::PlanStats stats;
    const auto values = checkAllValues(d, model, properties, exec, stats);
    EXPECT_EQ(values[0], oracleInstantaneous(d, reward, 100));
    EXPECT_EQ(values[1], oracleInstantaneous(d, reward, 301));
    EXPECT_EQ(values[2], oracleCumulative(d, reward, 200));
    EXPECT_EQ(stats.transientMultiplies, 301u);
  }
}

TEST(TransientStop, TileWithOnePeriodicColumnKeepsMultiplying) {
  // State 0 absorbs; states 1 -> 2 -> 3 -> 1 cycle. Both are initial, so
  // the build reaches all four.
  const test::MatrixModel model({{1.0, 0.0, 0.0, 0.0},
                                 {0.0, 0.0, 1.0, 0.0},
                                 {0.0, 0.0, 0.0, 1.0},
                                 {0.0, 1.0, 0.0, 0.0}},
                                {0, 1});
  const auto d = dtmc::buildExplicit(model).dtmc;
  ASSERT_EQ(d.numStates(), 4u);
  std::size_t absorbing = 0;
  std::size_t onCycle = 0;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (d.varValue(s, 0) == 0) absorbing = s;
    if (d.varValue(s, 0) == 1) onCycle = s;
  }
  const std::vector<std::vector<double>> starts{unitVector(4, absorbing),
                                                unitVector(4, onCycle)};
  for (const std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    engine::ThreadPool pool(workers);
    const la::Exec exec = poolExec(pool);

    // Alone, the absorbing start is stationary after one multiply.
    mc::TransientSweep alone(d, {starts[0]}, exec);
    alone.advanceTo(50);
    EXPECT_TRUE(alone.stationary());
    EXPECT_EQ(alone.multiplies(), 1u);

    mc::TransientSweep tile(d, starts, exec);
    for (const std::uint64_t t : {1ULL, 2ULL, 3ULL, 4ULL, 50ULL}) {
      tile.advanceTo(t);
      EXPECT_FALSE(tile.stationary());
      EXPECT_EQ(tile.multiplies(), t);
      for (std::size_t j = 0; j < starts.size(); ++j) {
        EXPECT_TRUE(bitEqual(tile.distributionAt(j),
                             oracleDistribution(d, starts[j], t)))
            << "t=" << t << " column " << j;
      }
    }
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
    EXPECT_EQ(values[0], oracleInstantaneous(d, reward, 33));
    EXPECT_EQ(stats.transientMultiplies, 33u);
    EXPECT_LT(seconds, 1.0);

    // The single-property path (instantaneousReward) jumps the same way.
    EXPECT_EQ(mc::instantaneousReward(d, reward, 1'000'000'000'000ULL,
                                      poolExec(pool)),
              values[0]);
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
    const auto response = eng.analyze(request);
    ASSERT_EQ(response.results.size(), properties.size());
    for (const auto& result : response.results) {
      ASSERT_TRUE(result.ok()) << result.error;
    }
    for (std::size_t i = 0; i < horizons.size(); ++i) {
      EXPECT_EQ(response.results[i + 1].value,
                oracleInstantaneous(build.dtmc, reward, horizons[i]))
          << properties[i + 1];
    }
    EXPECT_EQ(response.results.back().value,
              oracleCumulative(build.dtmc, reward, 300));
    EXPECT_GT(response.plan.transientMultiplies, 0u);
    EXPECT_LT(response.plan.transientMultiplies, 300u);
  }
}

}  // namespace
}  // namespace mimostat
