// Quotient aliases: a fingerprinted model reaches a plan-aware quotient it
// has seen through (fingerprint, plan masks, reward names), without
// evaluating atoms and rewards over the full model, and answers bit for bit
// as the evaluating path does. Models without a fingerprint evaluate on
// every request, different atoms never share a quotient, an evicted
// quotient takes its alias with it, and concurrent requests agree.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "obs/metrics.hpp"

namespace mimostat {
namespace {

constexpr std::int32_t kRing = 24;

/// A lazy walk on a ring of kRing states that counts its atom() and
/// stateReward() calls. Atom "goal" = s divisible by `goalPeriod`; reward =
/// s mod 2. The plan-aware quotient therefore has lcm(goalPeriod, 2)
/// blocks.
class CountingRing : public dtmc::Model {
 public:
  CountingRing(std::int32_t goalPeriod, std::optional<std::uint64_t> fp)
      : goalPeriod_(goalPeriod), fingerprint_(fp) {}

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"s", 0, kRing - 1}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{1}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    out.add(0.5, {s[0]});
    out.add(0.5, {(s[0] + 1) % kRing});
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    atomCalls.fetch_add(1, std::memory_order_relaxed);
    return name == "goal" && s[0] % goalPeriod_ == 0;
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view /*name*/) const override {
    rewardCalls.fetch_add(1, std::memory_order_relaxed);
    return s[0] % 2;
  }
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override {
    return fingerprint_;
  }

  /// Calls since the last take().
  std::uint64_t takeAtomCalls() const { return atomCalls.exchange(0); }
  std::uint64_t takeRewardCalls() const { return rewardCalls.exchange(0); }

 private:
  std::int32_t goalPeriod_;
  std::optional<std::uint64_t> fingerprint_;
  mutable std::atomic<std::uint64_t> atomCalls{0};
  mutable std::atomic<std::uint64_t> rewardCalls{0};
};

const std::vector<std::string> kProperties{"P=? [ F<=5 goal ]",
                                           "R=? [ I=3 ]"};

engine::AnalysisRequest requestFor(const dtmc::Model& model,
                                   reduce::Toggle quotient =
                                       reduce::Toggle::kOn) {
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = kProperties;
  request.options.reduction.quotient = quotient;
  return request;
}

std::vector<double> valuesOf(const engine::AnalysisResponse& response) {
  EXPECT_TRUE(response.ok()) << response.error;
  std::vector<double> values;
  for (const auto& result : response.results) {
    EXPECT_TRUE(result.ok()) << result.property << ": " << result.error;
    values.push_back(result.value);
  }
  return values;
}

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The unreduced answers of a fresh engine, within 1e-9.
void expectNearUnreduced(const CountingRing& model,
                         const std::vector<double>& got) {
  engine::AnalysisEngine fresh;
  const std::vector<double> want =
      valuesOf(fresh.analyze(requestFor(model, reduce::Toggle::kOff)));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9) << kProperties[i];
  }
}

std::uint64_t counter(const obs::MetricsRegistry& metrics,
                      const std::string& name) {
  return metrics.snapshot().counterValue(name);
}

TEST(QuotientAlias, RepeatRequestSkipsFullModelEvaluation) {
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  engine::AnalysisEngine eng(options);
  const CountingRing model(4, 11);

  const engine::AnalysisResponse cold = eng.analyze(requestFor(model));
  const std::vector<double> coldValues = valuesOf(cold);
  ASSERT_TRUE(cold.reduction.applied);
  const std::uint64_t blocks = cold.reduction.statesAfter;
  EXPECT_EQ(blocks, 4u);
  // The full model once for the quotient key, then the quotient.
  EXPECT_EQ(model.takeAtomCalls(), kRing + blocks);
  EXPECT_EQ(model.takeRewardCalls(), kRing + blocks);
  EXPECT_EQ(counter(metrics, "engine.quotient_alias_hits"), 0u);

  const engine::AnalysisResponse warm = eng.analyze(requestFor(model));
  EXPECT_TRUE(bitEqual(valuesOf(warm), coldValues));
  EXPECT_TRUE(warm.reduction.applied);
  EXPECT_TRUE(warm.reduction.cacheHit);
  EXPECT_EQ(warm.reduction.statesAfter, blocks);
  // Only the checker's evaluation on the quotient.
  EXPECT_EQ(model.takeAtomCalls(), blocks);
  EXPECT_EQ(model.takeRewardCalls(), blocks);
  EXPECT_EQ(counter(metrics, "engine.quotient_alias_hits"), 1u);
  EXPECT_EQ(eng.stats().quotientBuilds, 1u);
  EXPECT_EQ(eng.stats().quotientHits, 1u);

  // The evaluating path on a fresh engine reaches the same quotient.
  const CountingRing twin(4, std::nullopt);
  engine::AnalysisEngine fresh;
  EXPECT_TRUE(bitEqual(valuesOf(fresh.analyze(requestFor(twin))), coldValues));
  expectNearUnreduced(model, coldValues);
}

TEST(QuotientAlias, UnfingerprintedModelEvaluatesEveryRequest) {
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  engine::AnalysisEngine eng(options);
  const CountingRing model(4, std::nullopt);
  std::vector<double> first;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const engine::AnalysisResponse response = eng.analyze(requestFor(model));
    const std::vector<double> values = valuesOf(response);
    if (round == 0) first = values;
    EXPECT_TRUE(bitEqual(values, first));
    EXPECT_EQ(response.reduction.cacheHit, round > 0);
    const std::uint64_t blocks = response.reduction.statesAfter;
    EXPECT_EQ(model.takeAtomCalls(), kRing + blocks);
    EXPECT_EQ(model.takeRewardCalls(), kRing + blocks);
  }
  EXPECT_EQ(counter(metrics, "engine.quotient_alias_hits"), 0u);
  EXPECT_EQ(eng.stats().quotientBuilds, 1u);
  EXPECT_EQ(eng.stats().quotientHits, 2u);
}

TEST(QuotientAlias, DifferentAtomsOverOneStructureGetTheirOwnQuotients) {
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  engine::AnalysisEngine eng(options);
  const CountingRing byFour(4, 1);
  const CountingRing byThree(3, 2);
  const std::vector<double> four = valuesOf(eng.analyze(requestFor(byFour)));
  const engine::AnalysisResponse threeCold = eng.analyze(requestFor(byThree));
  const std::vector<double> three = valuesOf(threeCold);
  EXPECT_TRUE(threeCold.cacheHit);  // one structure, one full build
  EXPECT_EQ(threeCold.reduction.statesAfter, 6u);
  EXPECT_NE(four[0], three[0]);
  expectNearUnreduced(byFour, four);
  expectNearUnreduced(byThree, three);

  const engine::AnalysisResponse fourWarm = eng.analyze(requestFor(byFour));
  const engine::AnalysisResponse threeWarm = eng.analyze(requestFor(byThree));
  EXPECT_TRUE(bitEqual(valuesOf(fourWarm), four));
  EXPECT_TRUE(bitEqual(valuesOf(threeWarm), three));
  EXPECT_EQ(fourWarm.reduction.statesAfter, 4u);
  EXPECT_EQ(threeWarm.reduction.statesAfter, 6u);
  EXPECT_EQ(counter(metrics, "engine.quotient_alias_hits"), 2u);
  EXPECT_EQ(eng.stats().builds, 1u);
  EXPECT_EQ(eng.stats().quotientBuilds, 2u);

  // One fingerprint, another plan mask: a quotient of its own.
  engine::AnalysisRequest other = requestFor(byFour);
  other.properties = {"P=? [ F<=5 s=5 ]", "R=? [ I=3 ]"};
  const engine::AnalysisResponse otherMask = eng.analyze(other);
  ASSERT_TRUE(otherMask.ok()) << otherMask.error;
  EXPECT_FALSE(otherMask.reduction.cacheHit);
  EXPECT_EQ(eng.stats().quotientBuilds, 3u);
  other.options.reduction.quotient = reduce::Toggle::kOff;
  engine::AnalysisEngine fresh;
  const engine::AnalysisResponse unreduced = fresh.analyze(other);
  EXPECT_NEAR(otherMask.results[0].value, unreduced.results[0].value, 1e-9);
}

TEST(QuotientAlias, EvictedQuotientTakesItsAliasWithIt) {
  // Three entries: the one full build and the quotients of the first two
  // atom sets. A third atom set's quotient evicts the least recently used
  // entry, the first quotient (the full build was just hit).
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.threads = 2;
  options.maxCachedModels = 3;
  options.metrics = &metrics;
  engine::AnalysisEngine eng(options);
  const CountingRing first(4, 1);
  const CountingRing second(3, 2);
  const CountingRing third(6, 3);
  const std::vector<double> want = valuesOf(eng.analyze(requestFor(first)));
  (void)valuesOf(eng.analyze(requestFor(second)));
  (void)valuesOf(eng.analyze(requestFor(third)));
  EXPECT_EQ(eng.stats().cachedModels, 3u);
  EXPECT_EQ(eng.stats().quotientBuilds, 3u);
  first.takeAtomCalls();

  const engine::AnalysisResponse rebuilt = eng.analyze(requestFor(first));
  EXPECT_TRUE(bitEqual(valuesOf(rebuilt), want));
  EXPECT_TRUE(rebuilt.cacheHit);  // the full build is still resident
  EXPECT_FALSE(rebuilt.reduction.cacheHit);
  EXPECT_TRUE(rebuilt.reduction.applied);
  EXPECT_EQ(eng.stats().quotientBuilds, 4u);
  EXPECT_EQ(counter(metrics, "engine.quotient_alias_hits"), 0u);
  EXPECT_GE(first.takeAtomCalls(), static_cast<std::uint64_t>(kRing));

  // The rebuilt quotient carries a fresh alias.
  const engine::AnalysisResponse again = eng.analyze(requestFor(first));
  EXPECT_TRUE(bitEqual(valuesOf(again), want));
  EXPECT_TRUE(again.reduction.cacheHit);
  EXPECT_EQ(counter(metrics, "engine.quotient_alias_hits"), 1u);
  EXPECT_EQ(eng.stats().quotientBuilds, 4u);
}

TEST(QuotientAlias, ConcurrentIdenticalRequestsAgree) {
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.threads = 4;
  options.metrics = &metrics;
  engine::AnalysisEngine eng(options);
  const CountingRing model(4, 7);
  const std::vector<engine::AnalysisRequest> batch(8, requestFor(model));
  std::vector<double> want;
  for (const char* phase : {"cold", "warm"}) {
    SCOPED_TRACE(phase);
    for (const engine::AnalysisResponse& response : eng.analyzeAll(batch)) {
      const std::vector<double> values = valuesOf(response);
      if (want.empty()) want = values;
      EXPECT_TRUE(bitEqual(values, want));
      EXPECT_TRUE(response.reduction.applied);
    }
  }
  EXPECT_GE(counter(metrics, "engine.quotient_alias_hits"), 8u);
  EXPECT_EQ(eng.stats().builds, 1u);
  EXPECT_EQ(eng.stats().quotientBuilds, 1u);
  expectNearUnreduced(model, want);
}

}  // namespace
}  // namespace mimostat
