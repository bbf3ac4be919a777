// dtmc::revalue and the engine's skeleton retention. The oracle: a
// re-valued exploration equals a fresh dtmc::explore of the same model bit
// for bit (row pointers, columns, values, state table, initial
// distribution, hash, counts, RI and mass deviation), without a runner and
// on 1-, 2- and 8-thread pools; a model whose structure differs falls back
// (nullopt), and the engine then explores it, answers it exactly and
// retains its skeleton instead.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "mc/checker.hpp"
#include "mimo/model.hpp"
#include "obs/metrics.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The re-valued exploration `got` is the fresh one `want`, field for field.
void expectSameExploration(const dtmc::Exploration& got,
                           const dtmc::Exploration& want) {
  ASSERT_NE(got.skeleton.pattern, nullptr);
  EXPECT_EQ(got.hash, want.hash);
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(got.states, want.states);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.reachabilityIterations, want.reachabilityIterations);
  EXPECT_EQ(got.worstMassDeviation, want.worstMassDeviation);
  EXPECT_EQ(*got.skeleton.keys, want.raw.keys);
  EXPECT_EQ(got.skeleton.pattern->rowPtr, want.raw.rowPtr);
  EXPECT_EQ(got.skeleton.pattern->col, want.raw.col);
  EXPECT_TRUE(bitEqual(got.raw.val, want.raw.val));
  EXPECT_TRUE(bitEqual(got.raw.initial, want.raw.initial));
}

/// The skeleton of `model`'s fresh exploration.
dtmc::Skeleton skeletonOf(const dtmc::Model& model,
                          const dtmc::ExploreOptions& options = {}) {
  dtmc::Exploration e = dtmc::explore(model, options);
  return dtmc::ExplicitDtmc::detachSkeleton(e.raw);
}

/// `model` re-valued on `skeleton` equals its fresh exploration, without a
/// runner and on 1/2/8-thread pools.
void expectRevalued(const dtmc::Skeleton& skeleton, const dtmc::Model& model,
                    const dtmc::ExploreOptions& options = {}) {
  const dtmc::Exploration fresh = dtmc::explore(model, options);
  const std::optional<dtmc::Exploration> got =
      dtmc::revalue(model, skeleton, options);
  ASSERT_TRUE(got.has_value());
  expectSameExploration(*got, fresh);
  for (const std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    engine::ThreadPool pool(threads);
    const std::optional<dtmc::Exploration> pooled = dtmc::revalue(
        model, skeleton, options, engine::laRunnerFor(pool));
    ASSERT_TRUE(pooled.has_value());
    expectSameExploration(*pooled, fresh);
  }
}

/// `model` does not fit `skeleton`: revalue declines, at every pool size.
void expectFallback(const dtmc::Skeleton& skeleton, const dtmc::Model& model,
                    const dtmc::ExploreOptions& options = {}) {
  EXPECT_FALSE(dtmc::revalue(model, skeleton, options).has_value());
  for (const std::size_t threads : {1, 2, 8}) {
    engine::ThreadPool pool(threads);
    EXPECT_FALSE(
        dtmc::revalue(model, skeleton, options, engine::laRunnerFor(pool))
            .has_value());
  }
}

mimo::MimoParams paperParams(int nr, double snrDb) {
  mimo::MimoParams p = nr == 2 ? mimo::mimo1x2Params() : mimo::mimo1x4Params();
  p.snrDb = snrDb;
  return p;
}

TEST(Skeleton, Mimo1x2From6To20DbMatchesFreshExplorations) {
  const dtmc::Skeleton skeleton =
      skeletonOf(mimo::MimoDetectorModel(paperParams(2, 6.0)));
  for (double snr = 6.0; snr <= 20.0; snr += 2.0) {
    SCOPED_TRACE("1x2 at " + std::to_string(snr) + " dB");
    expectRevalued(skeleton, mimo::MimoDetectorModel(paperParams(2, snr)));
  }
}

TEST(Skeleton, Mimo1x4From6To24DbMatchesFreshExplorations) {
  const dtmc::Skeleton skeleton =
      skeletonOf(mimo::MimoDetectorModel(paperParams(4, 6.0)));
  for (double snr = 6.0; snr <= 24.0; snr += 2.0) {
    SCOPED_TRACE("1x4 at " + std::to_string(snr) + " dB");
    expectRevalued(skeleton, mimo::MimoDetectorModel(paperParams(4, snr)));
  }
}

/// At 22 dB some observation cells of 1x2 have probability 0, so rows lose
/// targets and the chain shrinks: the 20 dB skeleton no longer fits.
TEST(Skeleton, Mimo1x2At22DbAfter20DbFallsBack) {
  const dtmc::Skeleton skeleton =
      skeletonOf(mimo::MimoDetectorModel(paperParams(2, 20.0)));
  const mimo::MimoDetectorModel at22(paperParams(2, 22.0));
  const dtmc::Exploration fresh = dtmc::explore(at22);
  EXPECT_EQ(fresh.states, 131'398u);
  EXPECT_NE(fresh.states, skeleton.keys->size());
  expectFallback(skeleton, at22);
}

TEST(Skeleton, StructureFingerprintIgnoresOnlySnr) {
  const mimo::MimoParams base = paperParams(2, 8.0);
  const auto structure = [](const mimo::MimoParams& p) {
    return mimo::MimoDetectorModel(p).structureFingerprint();
  };
  ASSERT_TRUE(structure(base).has_value());
  mimo::MimoParams snr = base;
  snr.snrDb += 0.5;
  EXPECT_EQ(structure(snr), structure(base));
  EXPECT_NE(mimo::MimoDetectorModel(snr).fingerprint(),
            mimo::MimoDetectorModel(base).fingerprint());
  const std::vector<void (*)(mimo::MimoParams&)> mutations{
      [](mimo::MimoParams& p) { p.nr += 1; },
      [](mimo::MimoParams& p) { p.hLevels += 1; },
      [](mimo::MimoParams& p) { p.hRange += 0.25; },
      [](mimo::MimoParams& p) { p.yLevels += 1; },
      [](mimo::MimoParams& p) { p.yRange += 0.25; },
  };
  for (const auto& mutate : mutations) {
    mimo::MimoParams p = base;
    mutate(p);
    EXPECT_NE(structure(p), structure(base));
  }
  // The default: no structural claim.
  EXPECT_FALSE(test::twoStateChain(0.2, 0.3).structureFingerprint());
}

/// Same pattern, other probabilities: several initial states (one
/// repeated), a dead end (self-loop) and a probability floor.
TEST(Skeleton, MatrixModelsMatchFreshExplorations) {
  const auto chain = [](double p) {
    return test::MatrixModel({{0, p, 1 - p, 0, 0},
                              {0.5, 0, 0, 0.5, 0},
                              {0, 0, 0, 0, 0},  // dead end
                              {0, 0, p, 0, 1 - p},
                              {0, 0, 0, 1, 0}},
                             {3, 0, 3});
  };
  const dtmc::Skeleton skeleton = skeletonOf(chain(0.25));
  expectRevalued(skeleton, chain(0.25));
  expectRevalued(skeleton, chain(0.75));
  // A zero drops a target: the structure changed.
  expectFallback(skeleton, chain(1.0));

  dtmc::ExploreOptions floored;
  floored.probFloor = 0.1;
  const dtmc::Skeleton flooredSkeleton = skeletonOf(chain(0.5), floored);
  expectRevalued(flooredSkeleton, chain(0.3), floored);
  // Under the floor, 0.05 drops its target.
  expectFallback(flooredSkeleton, chain(0.05), floored);

  const test::MatrixModel random = test::randomModel(300, 4, 11);
  expectRevalued(skeletonOf(random), random);
}

TEST(Skeleton, InitialStatesAndLayoutsAreChecked) {
  const std::vector<std::vector<double>> line{
      {0, 1, 0}, {0, 0, 1}, {0, 0, 1}};
  const dtmc::Skeleton skeleton = skeletonOf(test::MatrixModel(line, {0}));
  // Start at 1: state 0 is unreachable, so the skeleton is too large.
  expectFallback(skeleton, test::MatrixModel(line, {1}));
  // Start at 2 and 0: 2 would be numbered first.
  expectFallback(skeleton, test::MatrixModel(line, {2, 0}));
  // Start at 0 and 1: the same numbering, reached in fewer levels (RI 2,
  // not 3) and from another initial distribution — re-valued exactly.
  const test::MatrixModel both(line, {0, 1});
  EXPECT_EQ(dtmc::explore(both).reachabilityIterations, 2u);
  expectRevalued(skeleton, both);
  // The same rows over a wider variable.
  std::vector<std::vector<double>> wider = line;
  for (auto& row : wider) row.push_back(0.0);
  wider.push_back({0, 0, 0, 1});
  expectFallback(skeleton, test::MatrixModel(wider, {0}));
  // No matrix kept, or more states than the cap: declined.
  dtmc::ExploreOptions options;
  options.keepMatrix = false;
  expectFallback(skeleton, test::MatrixModel(line, {0}), options);
  options = {};
  options.maxStates = 2;
  expectFallback(skeleton, test::MatrixModel(line, {0}), options);
}

/// A throwing row declines instead of throwing; explore then throws.
TEST(Skeleton, ThrowingRowFallsBack) {
  class Throwing : public test::MatrixModel {
   public:
    Throwing() : MatrixModel({{0.5, 0.5}, {0.5, 0.5}}) {}
    void transitions(const dtmc::State& s,
                     dtmc::Successors& out) const override {
      if (s[0] == 1) throw std::runtime_error("row 1");
      MatrixModel::transitions(s, out);
    }
  };
  const dtmc::Skeleton skeleton =
      skeletonOf(test::MatrixModel({{0.5, 0.5}, {0.5, 0.5}}));
  expectFallback(skeleton, Throwing());
  EXPECT_THROW((void)dtmc::explore(Throwing()), std::runtime_error);
}

/// A model whose structure fingerprint wrongly ignores its `wide` flag,
/// which changes its rows. Fingerprint-less, so every request explores
/// (or re-values) it.
class LyingModel : public dtmc::Model {
 public:
  LyingModel(bool wide, double p) : wide_(wide), p_(p) {}
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"s", 0, 3}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{0}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    const int last = wide_ ? 3 : 2;
    if (s[0] == last) {
      out.add(1.0, {0});
    } else {
      out.add(p_, {s[0] + 1});
      out.add(1.0 - p_, {0});
    }
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    return name == "end" && s[0] == (wide_ ? 3 : 2);
  }
  [[nodiscard]] std::optional<std::uint64_t> structureFingerprint()
      const override {
    return 0x1135;  // wrong: ignores wide_
  }

 private:
  bool wide_;
  double p_;
};

/// The request's answers, against the unreduced mc::Checker on a fresh
/// build, within 1e-9.
void expectExactAnswers(const engine::AnalysisResponse& response,
                        const dtmc::Model& model) {
  const dtmc::BuildResult build = dtmc::buildExplicit(model);
  const mc::Checker checker(build.dtmc, model);
  ASSERT_TRUE(response.error.empty()) << response.error;
  for (const engine::AnalysisResult& result : response.results) {
    SCOPED_TRACE(result.property);
    ASSERT_TRUE(result.error.empty()) << result.error;
    const mc::CheckResult want = checker.check(result.property);
    ASSERT_TRUE(want.ok()) << want.error;
    EXPECT_NEAR(result.value, want.value, 1e-9);
  }
}

TEST(Skeleton, WrongStructureClaimFallsBackAndReplacesTheSkeleton) {
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.threads = 2;
  options.metrics = &metrics;
  engine::AnalysisEngine engine(options);
  const auto counter = [&](const char* name) {
    return metrics.snapshot().counterValue(name);
  };
  const auto send = [&](const dtmc::Model& model) {
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = {"P=? [ F<=5 \"end\" ]", "P=? [ X \"end\" ]"};
    const engine::AnalysisResponse response = engine.analyze(request);
    EXPECT_FALSE(response.cacheHit);
    expectExactAnswers(response, model);
  };

  send(LyingModel(false, 0.5));  // explored; its skeleton retained
  EXPECT_EQ(counter("engine.skeleton_hits"), 0u);
  send(LyingModel(false, 0.25));  // same structure: re-valued
  EXPECT_EQ(counter("engine.skeleton_hits"), 1u);
  send(LyingModel(true, 0.5));  // the claim is wrong: explored instead
  EXPECT_EQ(counter("engine.skeleton_fallbacks"), 1u);
  EXPECT_EQ(counter("engine.skeleton_hits"), 1u);
  send(LyingModel(true, 0.75));  // on the replacing skeleton
  EXPECT_EQ(counter("engine.skeleton_hits"), 2u);
  EXPECT_EQ(counter("engine.skeleton_fallbacks"), 1u);
  send(LyingModel(false, 0.75));  // the old skeleton is gone
  EXPECT_EQ(counter("engine.skeleton_fallbacks"), 2u);
  EXPECT_EQ(engine.stats().builds, 5u);

  // ensureBuilt re-values too, into the DTMC a fresh build assembles.
  const LyingModel next(false, 0.125);
  bool hit = true;
  const auto built = engine.ensureBuilt(next, {}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(counter("engine.skeleton_hits"), 3u);
  const dtmc::BuildResult fresh = dtmc::buildExplicit(next);
  EXPECT_EQ(built->dtmc.rowPtr(), fresh.dtmc.rowPtr());
  EXPECT_EQ(built->dtmc.col(), fresh.dtmc.col());
  EXPECT_TRUE(bitEqual(built->dtmc.val(), fresh.dtmc.val()));
  EXPECT_TRUE(bitEqual(built->dtmc.initialDistribution(),
                       fresh.dtmc.initialDistribution()));
  EXPECT_TRUE(test::sameStateTables(built->dtmc, fresh.dtmc));
  EXPECT_EQ(built->reachabilityIterations, fresh.reachabilityIterations);
}

/// Cold MIMO designs (each SNR new, so every request misses the model and
/// quotient caches) re-value the retained skeleton of their family; answers
/// stay within 1e-9 of the unreduced checker, the cache's bytes are its
/// slots' bytes and the skeletons stay within the retention bounds.
TEST(Skeleton, ColdMimoDesignsRevalueTheirFamilysSkeleton) {
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.threads = 4;
  options.maxCachedModels = 2;
  options.metrics = &metrics;
  engine::AnalysisEngine engine(options);
  std::vector<mimo::MimoDetectorModel> models;
  const std::vector<std::pair<int, double>> designs{
      {2, 7.0}, {4, 21.0}, {2, 8.5}, {4, 23.0}, {2, 9.25}, {4, 20.5}};
  models.reserve(designs.size());
  for (const auto& [nr, snr] : designs) {
    models.emplace_back(paperParams(nr, snr));
  }
  for (std::size_t i = 0; i < models.size(); ++i) {
    SCOPED_TRACE("design " + std::to_string(i));
    engine::AnalysisRequest request;
    request.model = &models[i];
    request.properties = {"R=? [ I=8 ]", "P=? [ F<=6 error ]"};
    const engine::AnalysisResponse response = engine.analyze(request);
    EXPECT_FALSE(response.cacheHit);
    EXPECT_FALSE(response.reduction.cacheHit);
    EXPECT_TRUE(response.reduction.applied);
    EXPECT_GT(response.timing.keySeconds, 0.0);
    expectExactAnswers(response, models[i]);
    EXPECT_LE(engine.stats().cachedModels, 2u);
  }
  // The first design of each family explores; the others re-value.
  EXPECT_EQ(metrics.snapshot().counterValue("engine.skeleton_hits"), 4u);
  EXPECT_EQ(metrics.snapshot().counterValue("engine.skeleton_fallbacks"), 0u);

  // The cache's bytes are its slots' bytes: with the quotient off, the two
  // resident slots are the last two designs' builds (hits now).
  engine::AnalysisEngine plain(options);
  std::uint64_t slots = 0;
  for (const std::size_t i : {0, 1, 2}) {
    engine::AnalysisRequest request;
    request.model = &models[i];
    request.properties = {"R=? [ I=8 ]"};
    request.options.reduction.quotient = reduce::Toggle::kOff;
    (void)plain.analyze(request);
  }
  for (const std::size_t i : {1, 2}) {
    bool hit = false;
    slots += plain.ensureBuilt(models[i], {}, &hit)->approxBytes;
    EXPECT_TRUE(hit);
  }
  EXPECT_EQ(plain.stats().cacheBytes, slots);
  EXPECT_EQ(plain.stats().cachedModels, 2u);

  // Retention bounds: one skeleton for two alternating families, or a byte
  // budget below one skeleton, leaves nothing to re-value.
  const auto hitsOf = [&](std::size_t maxModels, std::uint64_t maxBytes) {
    obs::MetricsRegistry bounded;
    engine::EngineOptions o = options;
    o.maxCachedModels = maxModels;
    o.maxCacheBytes = maxBytes;
    o.metrics = &bounded;
    engine::AnalysisEngine eng(o);
    for (const std::size_t i : {0, 1, 2, 3}) {
      engine::AnalysisRequest request;
      request.model = &models[i];
      request.properties = {"R=? [ I=8 ]"};
      (void)eng.analyze(request);
    }
    return bounded.snapshot().counterValue("engine.skeleton_hits");
  };
  EXPECT_EQ(hitsOf(2, 0), 2u);
  EXPECT_EQ(hitsOf(1, 0), 0u);
  EXPECT_EQ(hitsOf(2, 1), 0u);
}

/// Eight same-structure designs in one analyzeAll batch: concurrent
/// re-valuations of one skeleton (after the first design explores) answer
/// exactly as fresh builds.
TEST(Skeleton, ConcurrentSameStructureDesignsAnswerExactly) {
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.maxCachedModels = 4;
  options.metrics = &metrics;
  engine::AnalysisEngine engine(options);
  std::vector<mimo::MimoDetectorModel> models;
  models.reserve(8);
  for (int i = 0; i < 8; ++i) {
    models.emplace_back(paperParams(4, 20.0 + 0.5 * i));
  }
  engine::AnalysisRequest first;
  first.model = &models[0];
  first.properties = {"R=? [ I=8 ]"};
  (void)engine.analyze(first);
  std::vector<engine::AnalysisRequest> requests(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    requests[i].model = &models[i];
    requests[i].properties = {"R=? [ I=8 ]", "P=? [ F<=6 error ]"};
  }
  const std::vector<engine::AnalysisResponse> responses =
      engine.analyzeAll(requests);
  for (std::size_t i = 0; i < models.size(); ++i) {
    SCOPED_TRACE("design " + std::to_string(i));
    expectExactAnswers(responses[i], models[i]);
  }
  // Design 0 is a fingerprint hit; the other seven re-value.
  EXPECT_EQ(metrics.snapshot().counterValue("engine.skeleton_hits"), 7u);
  EXPECT_EQ(metrics.snapshot().counterValue("engine.skeleton_fallbacks"), 0u);
}

}  // namespace
}  // namespace mimostat
