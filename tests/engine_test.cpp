#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/signature.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "legacy_loops.hpp"
#include "mc/checker.hpp"
#include "mc/transient.hpp"
#include "obs/metrics.hpp"
#include "pctl/parser.hpp"
#include "smc/smc.hpp"
#include "test_models.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

/// Engine options with the two knobs these tests vary set by name.
engine::EngineOptions engineOptions(std::size_t threads,
                                    std::size_t maxCachedModels) {
  engine::EngineOptions options;
  options.threads = threads;
  options.maxCachedModels = maxCachedModels;
  return options;
}

viterbi::ReducedViterbiModel smallViterbi() {
  viterbi::ViterbiParams params;
  params.tracebackLength = 3;
  return viterbi::ReducedViterbiModel(params);
}

/// Seed-style reference: fresh build, one independent check per property
/// (each R=?[I=T] re-propagates from pi_0).
std::vector<double> perCallReference(const dtmc::Model& model,
                                     const std::vector<std::string>& props) {
  const auto build = dtmc::buildExplicit(model);
  const mc::Checker checker(build.dtmc, model);
  std::vector<double> values;
  values.reserve(props.size());
  for (const auto& p : props) values.push_back(checker.check(p).value);
  return values;
}

TEST(ModelSignature, StableAndStructural) {
  const auto model = smallViterbi();
  const auto a = dtmc::modelSignature(model);
  const auto b = dtmc::modelSignature(model);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_TRUE(a.exact);
  EXPECT_GT(a.states, 0u);

  const auto build = dtmc::buildExplicit(model);
  EXPECT_EQ(a.states, build.dtmc.numStates());

  // A different design must hash differently.
  viterbi::ViterbiParams other;
  other.tracebackLength = 4;
  const viterbi::ReducedViterbiModel otherModel(other);
  EXPECT_NE(dtmc::modelSignature(otherModel).hash, a.hash);
}

TEST(ModelSignature, RewardsDoNotAffectStructure) {
  // The cache stores transition structure only; rewards re-resolve through
  // the requesting model, so two models differing only in rewards share a
  // signature by design.
  auto plain = test::twoStateChain(0.3, 0.4);
  auto rewarded = test::twoStateChain(0.3, 0.4);
  rewarded.withRewards({0.0, 1.0});
  EXPECT_EQ(dtmc::modelSignature(plain).hash,
            dtmc::modelSignature(rewarded).hash);
}

TEST(ModelSignature, TruncatedProbeNeverAliasesExact) {
  const auto model = test::gamblersRuin(50, 0.5, 25);
  const auto exact = dtmc::modelSignature(model);
  dtmc::SignatureOptions tiny;
  tiny.maxStates = 5;
  const auto truncated = dtmc::modelSignature(model, tiny);
  EXPECT_TRUE(exact.exact);
  EXPECT_FALSE(truncated.exact);
  EXPECT_NE(exact.hash, truncated.hash);
}

TEST(TransientSweep, MatchesPerCallBitForBit) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withRewards({0.0, 1.0});
  const auto build = dtmc::buildExplicit(model);
  const auto reward = build.dtmc.evalReward(model, "");

  // Unsorted, repeated horizons ride one sweep in the checker's plan; each
  // answer equals its own legacy propagation bit for bit.
  const std::vector<std::uint64_t> horizons{50, 1, 7, 7, 0, 23};
  const mc::Checker checker(build.dtmc, model);
  std::vector<pctl::Property> properties;
  for (const std::uint64_t h : horizons) {
    properties.push_back(
        checker.parsedProperty("R=? [ I=" + std::to_string(h) + " ]"));
  }
  const auto batched = checker.checkAll(properties);
  ASSERT_EQ(batched.size(), horizons.size());
  for (std::size_t i = 0; i < horizons.size(); ++i) {
    EXPECT_EQ(batched[i].value,
              test::legacyInstantaneous(build.dtmc, reward, horizons[i]))
        << "horizon " << horizons[i];
  }
}

TEST(TransientSweep, RefusesToRewind) {
  const auto model = test::twoStateChain(0.3, 0.4);
  const auto build = dtmc::buildExplicit(model);
  mc::TransientSweep sweep(build.dtmc);
  sweep.advanceTo(5);
  EXPECT_EQ(sweep.step(), 5u);
  EXPECT_THROW(sweep.advanceTo(4), std::invalid_argument);
}

TEST(Engine, BatchedSweepMatchesPerCallBitForBit) {
  const auto model = smallViterbi();
  std::vector<std::string> props;
  for (const std::uint64_t horizon : {1, 5, 10, 50, 100, 300}) {
    props.push_back("R=? [ I=" + std::to_string(horizon) + " ]");
  }
  props.push_back("R=? [ C<=100 ]");
  props.push_back("P=? [ G<=50 !flag ]");
  const auto reference = perCallReference(model, props);

  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = props;
  // Bitwise against the unreduced oracle: the 350-pass plan would quotient
  // under kAuto.
  request.options.reduction.quotient = reduce::Toggle::kOff;
  const auto response = eng.analyze(request);

  ASSERT_EQ(response.results.size(), props.size());
  EXPECT_EQ(response.backend, engine::Backend::kExact);
  for (std::size_t i = 0; i < props.size(); ++i) {
    ASSERT_TRUE(response.results[i].ok()) << response.results[i].error;
    EXPECT_EQ(response.results[i].property, props[i]);
    EXPECT_EQ(response.results[i].value, reference[i]) << props[i];
  }
  // The reward-horizon properties came from one shared sweep.
  EXPECT_TRUE(response.results[0].batched);
  EXPECT_TRUE(response.results[6].batched);
  EXPECT_FALSE(response.results[7].batched);

  // The auto path quotients and stays within the reduction tolerance.
  request.options.reduction.quotient = reduce::Toggle::kAuto;
  const auto reduced = eng.analyze(request);
  EXPECT_TRUE(reduced.reduction.applied);
  ASSERT_EQ(reduced.results.size(), props.size());
  for (std::size_t i = 0; i < props.size(); ++i) {
    ASSERT_TRUE(reduced.results[i].ok()) << reduced.results[i].error;
    EXPECT_NEAR(reduced.results[i].value, reference[i], 1e-9) << props[i];
  }
}

TEST(Engine, EnsureBuiltModelKeyMatchesPerCallBitForBit) {
  // Build once with ensureBuilt, then send exact requests on the same
  // fingerprinted model. Each request must skip the key exploration through
  // the fingerprint alias, hit the cache and match per-call checking.
  const auto model = smallViterbi();
  const std::vector<std::uint64_t> horizons{1, 5, 25, 100, 300};
  std::vector<std::string> props;
  for (const auto h : horizons) {
    props.push_back("R=? [ I=" + std::to_string(h) + " ]");
  }
  props.push_back("P=? [ G<=50 !flag ]");
  const auto reference = perCallReference(model, props);

  engine::AnalysisEngine eng;
  const auto built = eng.ensureBuilt(model);
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = props;
  request.options.backend = engine::Backend::kExact;
  // Bitwise against the unreduced oracle: the 350-pass plan would quotient
  // under kAuto.
  request.options.reduction.quotient = reduce::Toggle::kOff;
  const auto response = eng.analyze(request);
  EXPECT_TRUE(response.cacheHit);
  EXPECT_EQ(response.modelKey, built->signature);
  EXPECT_EQ(response.timing.keySeconds, 0.0);
  EXPECT_EQ(response.states, built->dtmc.numStates());
  EXPECT_EQ(eng.stats().builds, 1u);
  ASSERT_EQ(response.results.size(), props.size());
  for (std::size_t i = 0; i < props.size(); ++i) {
    ASSERT_TRUE(response.results[i].ok()) << response.results[i].error;
    EXPECT_EQ(response.results[i].value, reference[i]) << props[i];
  }

  // The auto path quotients and stays within the reduction tolerance.
  request.options.reduction.quotient = reduce::Toggle::kAuto;
  const auto reduced = eng.analyze(request);
  EXPECT_TRUE(reduced.reduction.applied);
  ASSERT_EQ(reduced.results.size(), props.size());
  for (std::size_t i = 0; i < props.size(); ++i) {
    ASSERT_TRUE(reduced.results[i].ok()) << reduced.results[i].error;
    EXPECT_NEAR(reduced.results[i].value, reference[i], 1e-9) << props[i];
  }
}

TEST(Engine, SecondRequestSkipsBuild) {
  const auto model = smallViterbi();
  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=10 ]"};

  const auto first = eng.analyze(request);
  EXPECT_FALSE(first.cacheHit);
  EXPECT_EQ(eng.stats().builds, 1u);

  const auto second = eng.analyze(request);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(eng.stats().builds, 1u);
  EXPECT_EQ(eng.stats().cacheHits, 1u);
  EXPECT_EQ(second.results[0].value, first.results[0].value);

  // A structurally identical but distinct model object also hits.
  const auto clone = smallViterbi();
  engine::AnalysisRequest cloneRequest = request;
  cloneRequest.model = &clone;
  const auto third = eng.analyze(cloneRequest);
  EXPECT_TRUE(third.cacheHit);
  EXPECT_EQ(eng.stats().builds, 1u);
}

TEST(Engine, BuildOptionsArePartOfTheCacheKey) {
  // probFloor changes the built matrix, so floored and unfloored builds of
  // the same model must not share a cache entry.
  const auto model = smallViterbi();
  engine::AnalysisEngine eng;
  const auto plain = eng.ensureBuilt(model);
  dtmc::BuildOptions floored;
  floored.probFloor = 1e-3;
  bool hit = true;
  const auto flooredBuild = eng.ensureBuilt(model, floored, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(plain->signature, flooredBuild->signature);
  EXPECT_EQ(eng.stats().builds, 2u);
}

TEST(Engine, AnalyzeAllIsolatesFailingRequests) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withRewards({0.0, 1.0});
  engine::AnalysisEngine eng;
  std::vector<engine::AnalysisRequest> requests(2);
  requests[0].model = nullptr;  // request-level failure
  requests[0].properties = {"R=? [ I=5 ]"};
  requests[1].model = &model;
  requests[1].properties = {"R=? [ I=5 ]"};
  const auto responses = eng.analyzeAll(requests);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].ok());
  EXPECT_FALSE(responses[0].error.empty());
  ASSERT_TRUE(responses[1].ok());
  EXPECT_GT(responses[1].results[0].value, 0.0);
}

TEST(Engine, AnalyzeAllBitIdenticalAcrossThreadCounts) {
  // A 2 x 3 study (chain parameter a x horizon T), one request per point on
  // its own model: the same bytes at 1, 2 and 8 pool threads.
  std::vector<test::MatrixModel> models;
  std::vector<int> horizons;
  for (const double a : {0.25, 0.3}) {
    for (const int T : {3, 13, 23}) {
      models.push_back(test::twoStateChain(a, 0.4));
      models.back().withRewards({0.0, 1.0});
      horizons.push_back(T);
    }
  }
  std::vector<engine::AnalysisRequest> requests(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    const std::string t = std::to_string(horizons[i]);
    requests[i].model = &models[i];
    requests[i].properties = {"R=? [ I=" + t + " ]", "R=? [ C<=" + t + " ]"};
  }

  std::vector<std::vector<engine::AnalysisResponse>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::AnalysisEngine eng(engineOptions(threads, 8));
    runs.push_back(eng.analyzeAll(requests));
  }
  for (const auto& run : runs) {
    ASSERT_EQ(run.size(), requests.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      ASSERT_TRUE(run[i].ok()) << run[i].error;
      ASSERT_EQ(run[i].results.size(), 2u);
      for (std::size_t j = 0; j < 2; ++j) {
        const engine::AnalysisResult& got = run[i].results[j];
        const engine::AnalysisResult& want = runs[0][i].results[j];
        EXPECT_EQ(std::memcmp(&got.value, &want.value, sizeof(double)), 0)
            << requests[i].properties[j] << ": " << got.value << " vs "
            << want.value;
        EXPECT_EQ(got.satisfied, want.satisfied);
      }
    }
  }
}

TEST(Engine, ModelKeySkipsProbe) {
  const auto model = smallViterbi();
  engine::AnalysisEngine eng;
  bool hit = true;
  const auto built = eng.ensureBuilt(model, {}, &hit);
  EXPECT_FALSE(hit);

  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=10 ]"};
  const auto response = eng.analyze(request);
  EXPECT_TRUE(response.cacheHit);
  EXPECT_EQ(response.modelKey, built->signature);
  EXPECT_EQ(response.timing.keySeconds, 0.0);
  EXPECT_EQ(eng.stats().builds, 1u);
}

TEST(Engine, UnlimitedStateBudgetStaysExact) {
  // kAuto explores one state past the budget; at an unlimited budget that
  // cap must saturate, not wrap to 0 (a truncated exploration would send
  // every model to the sampling backend).
  const auto model = smallViterbi();
  engine::AnalysisEngine eng(engineOptions(1, 8));
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=10 ]"};
  request.options.stateBudget = std::numeric_limits<std::uint64_t>::max();
  const auto response = eng.analyze(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.backend, engine::Backend::kExact);
  EXPECT_EQ(response.results[0].samples, 0u);
  EXPECT_EQ(response.states, dtmc::buildExplicit(model).dtmc.numStates());
  EXPECT_EQ(response.results[0].value,
            perCallReference(model, request.properties)[0]);
}

TEST(Engine, DefaultEnginesKeepSeparateStats) {
  // Without an injected registry every engine counts in its own: an idle
  // sibling reports nothing of another engine's requests.
  const auto model = smallViterbi();
  engine::AnalysisEngine busy;
  engine::AnalysisEngine idle;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=10 ]"};
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(busy.analyze(request).ok());

  const engine::EngineStats busyStats = busy.stats();
  EXPECT_EQ(busyStats.requests, 3u);
  EXPECT_EQ(busyStats.builds, 1u);
  EXPECT_EQ(busyStats.cacheHits, 2u);
  EXPECT_GT(busyStats.p50RequestSeconds, 0.0);

  const engine::EngineStats idleStats = idle.stats();
  EXPECT_EQ(idleStats.requests, 0u);
  EXPECT_EQ(idleStats.builds, 0u);
  EXPECT_EQ(idleStats.cacheHits, 0u);
  EXPECT_EQ(idleStats.p50RequestSeconds, 0.0);
}

TEST(Engine, ConcurrentIdenticalRequestsAgree) {
  const auto model = smallViterbi();
  engine::AnalysisEngine eng(engineOptions(4, 8));
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=100 ]", "R=? [ I=10 ]", "P=? [ G<=20 !flag ]",
                        "R=? [ C<=30 ]"};

  constexpr int kThreads = 8;
  std::vector<engine::AnalysisResponse> responses(kThreads);
  {
    // lint:allow(raw-thread: stress test drives the engine from client threads)
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { responses[i] = eng.analyze(request); });
    }
    for (auto& t : threads) t.join();
  }

  EXPECT_EQ(eng.stats().builds, 1u);  // concurrent requests share one build
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(responses[i].results.size(), request.properties.size());
    for (std::size_t p = 0; p < request.properties.size(); ++p) {
      ASSERT_TRUE(responses[i].results[p].ok());
      EXPECT_EQ(responses[i].results[p].value, responses[0].results[p].value)
          << "thread " << i << " property " << p;
      EXPECT_EQ(responses[i].results[p].property, request.properties[p]);
    }
  }
}

TEST(Engine, AnalyzeAllKeepsRequestOrder) {
  const auto chainA = test::gamblersRuin(20, 0.5, 10);
  auto chainB = test::twoStateChain(0.3, 0.4);
  chainB.withRewards({0.0, 1.0});

  engine::AnalysisEngine eng(engineOptions(2, 8));
  std::vector<engine::AnalysisRequest> requests(4);
  requests[0].model = &chainA;
  requests[0].properties = {"P=? [ F<=200 s=0 ]"};
  requests[1].model = &chainB;
  requests[1].properties = {"R=? [ I=50 ]"};
  requests[2].model = &chainA;
  requests[2].properties = {"P=? [ F<=200 s=20 ]"};
  requests[3].model = &chainB;
  requests[3].properties = {"R=? [ I=5 ]", "R=? [ I=500 ]"};

  const auto responses = eng.analyzeAll(requests);
  ASSERT_EQ(responses.size(), 4u);
  // Ruin vs win probabilities from the middle are symmetric for p=1/2.
  EXPECT_NEAR(responses[0].results[0].value, responses[2].results[0].value,
              1e-12);
  EXPECT_NEAR(responses[3].results[1].value, 0.3 / 0.7, 1e-9);
  EXPECT_LT(responses[3].results[0].value, responses[3].results[1].value);
  // chainA was built once, chainB once.
  EXPECT_EQ(eng.stats().builds, 2u);
}

TEST(Engine, AutoFallsBackToSamplingPastStateBudget) {
  const auto model = test::gamblersRuin(200, 0.5, 100);
  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=50 s=0 ]", "R=? [ I=10 ]", "R=? [ S ]"};
  request.options.stateBudget = 16;  // force the sampling backend
  request.options.smc.paths = 2000;

  const auto response = eng.analyze(request);
  EXPECT_EQ(response.backend, engine::Backend::kSampling);
  EXPECT_EQ(eng.stats().builds, 0u);  // sampling never materializes the DTMC

  ASSERT_TRUE(response.results[0].ok());
  EXPECT_TRUE(response.results[0].interval95.has_value());
  EXPECT_EQ(response.results[0].samples, 2000u);
  ASSERT_TRUE(response.results[1].ok());
  EXPECT_TRUE(response.results[1].interval95.has_value());
  // Steady-state rewards are not estimable by finite sampling.
  EXPECT_FALSE(response.results[2].ok());

  // The sampled estimate must agree with the exact value within the CI-ish
  // tolerance (F<=50 from the middle of a 200-rung ladder is ~0, so use the
  // instantaneous reward which is exactly 0 under the default reward).
  EXPECT_EQ(response.results[1].value, 0.0);
}

TEST(Engine, SamplingEstimateTracksExactValue) {
  auto model = test::twoStateChain(0.3, 0.4);
  model.withRewards({0.0, 1.0});

  engine::AnalysisEngine eng;
  engine::AnalysisRequest sampled;
  sampled.model = &model;
  sampled.properties = {"R=? [ I=40 ]"};
  sampled.options.backend = engine::Backend::kSampling;
  sampled.options.smc.paths = 20000;

  engine::AnalysisRequest exact = sampled;
  exact.options.backend = engine::Backend::kExact;

  const auto sampledResponse = eng.analyze(sampled);
  const auto exactResponse = eng.analyze(exact);
  ASSERT_TRUE(sampledResponse.results[0].ok());
  ASSERT_TRUE(exactResponse.results[0].ok());
  ASSERT_TRUE(sampledResponse.results[0].interval95.has_value());
  EXPECT_TRUE(sampledResponse.results[0].interval95->contains(
      exactResponse.results[0].value));
  EXPECT_NEAR(sampledResponse.results[0].value,
              exactResponse.results[0].value, 0.02);
}

TEST(Engine, SamplingSeedsArePerProperty) {
  // Each property samples its own derived stream: the engine's result for
  // property i must equal a standalone estimate seeded deriveSeed(seed, i),
  // so identical sibling properties see independent (different) streams.
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1});

  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=5 \"one\" ]", "P=? [ F<=5 \"one\" ]"};
  request.options.backend = engine::Backend::kSampling;
  request.options.smc.paths = 4000;
  request.options.smc.seed = 17;

  const auto response = eng.analyze(request);
  ASSERT_TRUE(response.ok());
  const auto parsed = pctl::parseProperty("P=? [ F<=5 \"one\" ]");
  for (std::size_t i = 0; i < 2; ++i) {
    smc::SmcOptions expected = request.options.smc;
    expected.seed = smc::deriveSeed(request.options.smc.seed, i);
    const auto reference =
        smc::estimatePathProbability(model, parsed.prob.path, expected);
    EXPECT_EQ(response.results[i].value, reference.estimate())
        << "property " << i;
    EXPECT_EQ(response.results[i].samples, reference.satisfied.trials());
  }
  // The derived streams are distinct, so the sibling raw counts differ
  // (deterministic given the fixed seed — not a statistical assertion).
  EXPECT_NE(smc::deriveSeed(17, 0), smc::deriveSeed(17, 1));
}

TEST(Engine, SamplingIsDeterministicAcrossThreadCounts) {
  // Acceptance criterion: bit-identical sampling results for a fixed seed
  // at 1, 2 and 8 worker threads, across every estimable property form.
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1}).withRewards({0.0, 1.0});

  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=5 \"one\" ]", "R=? [ I=12 ]",
                        "R=? [ C<=12 ]", "P>=0.6 [ F<=5 \"one\" ]"};
  request.options.backend = engine::Backend::kSampling;
  request.options.smc.paths = 6000;  // 6 chunks of 1,024 paths
  request.options.smc.seed = 29;

  std::vector<engine::AnalysisResponse> responses;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::AnalysisEngine eng(engineOptions(threads, 8));
    responses.push_back(eng.analyze(request));
  }
  for (std::size_t r = 1; r < responses.size(); ++r) {
    ASSERT_EQ(responses[r].results.size(), responses[0].results.size());
    for (std::size_t p = 0; p < responses[0].results.size(); ++p) {
      const auto& a = responses[0].results[p];
      const auto& b = responses[r].results[p];
      ASSERT_TRUE(a.ok()) << a.error;
      ASSERT_TRUE(b.ok()) << b.error;
      EXPECT_EQ(a.value, b.value) << "property " << p;
      EXPECT_EQ(a.samples, b.samples) << "property " << p;
      EXPECT_EQ(a.satisfied, b.satisfied) << "property " << p;
      ASSERT_EQ(a.interval95.has_value(), b.interval95.has_value());
      if (a.interval95 && b.interval95) {
        EXPECT_EQ(a.interval95->low, b.interval95->low);
        EXPECT_EQ(a.interval95->high, b.interval95->high);
      }
      EXPECT_EQ(a.sprt.has_value(), b.sprt.has_value());
      if (a.sprt && b.sprt) {
        EXPECT_EQ(a.sprt->pathsUsed, b.sprt->pathsUsed);
        EXPECT_EQ(a.sprt->decided, b.sprt->decided);
      }
    }
  }
}

TEST(Engine, SprtDecidesBoundedProbabilityWithGuarantees) {
  // P(F<=5 "one") ~ 0.832: thresholds straddling the truth must accept and
  // reject with the requested alpha/beta attached to the verdict.
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1});

  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P>=0.6 [ F<=5 \"one\" ]", "P>=0.95 [ F<=5 \"one\" ]",
                        "P<=0.95 [ F<=5 \"one\" ]"};
  request.options.backend = engine::Backend::kSampling;
  request.options.smc.seed = 5;
  request.options.sprt.alpha = 0.001;
  request.options.sprt.beta = 0.002;
  request.options.sprt.indifference = 0.05;

  const auto response = eng.analyze(request);
  ASSERT_TRUE(response.ok());
  for (const auto& result : response.results) {
    ASSERT_TRUE(result.sprt.has_value()) << result.property;
    EXPECT_TRUE(result.sprt->decided) << result.property;
    EXPECT_GT(result.sprt->pathsUsed, 0u);
    EXPECT_EQ(result.sprt->alpha, 0.001);
    EXPECT_EQ(result.sprt->beta, 0.002);
    EXPECT_GT(result.sprt->indifference, 0.0);
    EXPECT_EQ(result.samples, result.sprt->pathsUsed);
    // The SPRT stops early — far fewer paths than a fixed-n estimate, and
    // its free point estimate rides along. No interval95: adaptive stopping
    // voids fixed-sample coverage, the guarantee is alpha/beta.
    EXPECT_GT(result.value, 0.0);
    EXPECT_FALSE(result.interval95.has_value());
  }
  EXPECT_TRUE(response.results[0].satisfied);   // 0.6 < 0.832
  EXPECT_FALSE(response.results[1].satisfied);  // 0.95 > 0.832
  EXPECT_TRUE(response.results[2].satisfied);   // upper-bound claim holds
}

TEST(Engine, SamplingHandlesEveryExactRewardForm) {
  // No listed property form may fall through to the "requires the exact
  // backend" error; unbounded/steady-state forms still must.
  auto model = test::twoStateChain(0.3, 0.4);
  model.withLabel("one", {0, 1}).withRewards({0.0, 1.0});

  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=5 \"one\" ]", "P>=0.5 [ F<=5 \"one\" ]",
                        "R=? [ I=10 ]", "R=? [ C<=10 ]", "R=? [ S ]",
                        "P=? [ F \"one\" ]"};
  request.options.backend = engine::Backend::kSampling;
  request.options.smc.paths = 2000;

  const auto response = eng.analyze(request);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(response.results[i].ok()) << response.results[i].error;
  }
  EXPECT_FALSE(response.results[4].ok());  // steady state: exact only
  EXPECT_FALSE(response.results[5].ok());  // unbounded F: exact only

  // The sampled cumulative reward brackets the exact value.
  engine::AnalysisRequest exact = request;
  exact.properties = {"R=? [ C<=10 ]"};
  exact.options.backend = engine::Backend::kExact;
  const auto exactResponse = eng.analyze(exact);
  ASSERT_TRUE(exactResponse.ok());
  ASSERT_TRUE(response.results[3].interval95.has_value());
  EXPECT_TRUE(response.results[3].interval95->contains(
      exactResponse.results[0].value))
      << "exact " << exactResponse.results[0].value << " sampled "
      << response.results[3].value;
}

TEST(Engine, BackendsAgreeOnTransitionlessStates) {
  // The absorbing convention for dead-end states is shared: the builder
  // materializes the self-loop the sampler assumes, so exact and sampling
  // answers agree on models with transition-less states.
  test::MatrixModel model({{0.0, 1.0}, {0.0, 0.0}});  // state 1 is a dead end
  model.withRewards({0.0, 1.0});

  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=3 s=1 ]", "R=? [ I=5 ]", "R=? [ C<=5 ]"};
  request.options.smc.paths = 500;

  engine::AnalysisRequest sampled = request;
  sampled.options.backend = engine::Backend::kSampling;
  request.options.backend = engine::Backend::kExact;

  const auto exact = eng.analyze(request);
  const auto estimate = eng.analyze(sampled);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(estimate.ok());
  // The chain is deterministic, so even the sampled values are exact.
  EXPECT_EQ(exact.results[0].value, 1.0);  // reaches the dead end
  EXPECT_EQ(exact.results[1].value, 1.0);  // absorbed, reward 1 at T=5
  EXPECT_EQ(exact.results[2].value, 4.0);  // rewards at t=1..4
  for (std::size_t p = 0; p < request.properties.size(); ++p) {
    EXPECT_EQ(exact.results[p].value, estimate.results[p].value)
        << request.properties[p];
  }

  // The signature probe applies the same convention: its transition count
  // includes the implicit self-loop, and a model spelling the self-loop out
  // explicitly shares the cache key.
  const auto sig = dtmc::modelSignature(model);
  EXPECT_EQ(sig.transitions, dtmc::buildExplicit(model).dtmc.numTransitions());
  test::MatrixModel explicitLoop({{0.0, 1.0}, {0.0, 1.0}});
  EXPECT_EQ(sig.hash, dtmc::modelSignature(explicitLoop).hash);
}

TEST(ModelSignature, PackedProbeMatchesBuildCounts) {
  // gamblersRuin packs into u64, so the exploration takes the packed-key
  // path; its state/transition counts must match the explicit build.
  const auto model = test::gamblersRuin(64, 0.4, 32);
  const auto sig = dtmc::modelSignature(model);
  const auto build = dtmc::buildExplicit(model);
  EXPECT_TRUE(sig.exact);
  EXPECT_EQ(sig.states, build.dtmc.numStates());
  EXPECT_EQ(sig.transitions, build.dtmc.numTransitions());
}

TEST(Engine, ParseErrorIsPerProperty) {
  const auto model = smallViterbi();
  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=10 ]", "this is not pctl", "R=? [ I=20 ]"};
  const auto response = eng.analyze(request);
  EXPECT_TRUE(response.results[0].ok());
  EXPECT_FALSE(response.results[1].ok());
  EXPECT_TRUE(response.results[2].ok());
  EXPECT_FALSE(response.ok());
}

TEST(Engine, CacheEvictsLeastRecentlyUsed) {
  engine::AnalysisEngine eng(engineOptions(1, 2));
  std::vector<test::MatrixModel> models;
  models.reserve(4);
  for (int i = 0; i < 4; ++i) {
    models.push_back(test::gamblersRuin(10 + i, 0.5, 5));
  }
  for (auto& model : models) {
    (void)eng.ensureBuilt(model);
  }
  EXPECT_EQ(eng.stats().builds, 4u);
  EXPECT_LE(eng.stats().cachedModels, 2u);

  // The most recent entry is still cached; the oldest is gone.
  bool hit = false;
  (void)eng.ensureBuilt(models[3], {}, &hit);
  EXPECT_TRUE(hit);
  (void)eng.ensureBuilt(models[0], {}, &hit);
  EXPECT_FALSE(hit);
}

TEST(Engine, StatsTrackCacheBytes) {
  const auto model = smallViterbi();
  engine::AnalysisEngine eng;
  const auto built = eng.ensureBuilt(model);
  EXPECT_GT(built->approxBytes, 0u);
  EXPECT_EQ(built->approxBytes, engine::approxDtmcBytes(built->dtmc));

  const auto stats = eng.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.cacheHits, 0u);
  EXPECT_EQ(stats.cachedModels, 1u);
  EXPECT_EQ(stats.cacheBytes, built->approxBytes);

  eng.clearModelCache();
  EXPECT_EQ(eng.stats().cacheBytes, 0u);
  EXPECT_EQ(eng.stats().cachedModels, 0u);
}

TEST(Engine, ByteBudgetEvictsSoOneHugeModelCannotPinTheCache) {
  // Budget fits either ruin chain alone but not both: building the second
  // must evict the first even though the entry-count limit (8) is far off.
  const auto first = test::gamblersRuin(60, 0.5, 30);
  const auto second = test::gamblersRuin(80, 0.5, 40);

  engine::EngineOptions options;
  options.threads = 1;
  {
    engine::AnalysisEngine probe(options);
    const auto a = probe.ensureBuilt(first);
    const auto b = probe.ensureBuilt(second);
    options.maxCacheBytes = a->approxBytes + b->approxBytes - 1;
  }

  engine::AnalysisEngine eng(options);
  (void)eng.ensureBuilt(first);
  (void)eng.ensureBuilt(second);
  EXPECT_EQ(eng.stats().builds, 2u);
  EXPECT_EQ(eng.stats().cachedModels, 1u);
  EXPECT_LE(eng.stats().cacheBytes, options.maxCacheBytes);

  // The survivor is the most recently used entry.
  bool hit = false;
  (void)eng.ensureBuilt(second, {}, &hit);
  EXPECT_TRUE(hit);
  (void)eng.ensureBuilt(first, {}, &hit);
  EXPECT_FALSE(hit);
}

TEST(Engine, SingleOverBudgetModelStaysResident) {
  // A model bigger than the whole byte budget must not thrash: the byte
  // budget never evicts the last entry, so repeat requests still hit.
  engine::EngineOptions options;
  options.threads = 1;
  options.maxCacheBytes = 1;
  engine::AnalysisEngine eng(options);
  const auto model = test::gamblersRuin(40, 0.5, 20);
  (void)eng.ensureBuilt(model);
  EXPECT_EQ(eng.stats().cachedModels, 1u);
  bool hit = false;
  (void)eng.ensureBuilt(model, {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(eng.stats().builds, 1u);
}

/// A model no VarLayout can hold fails its own request, with the layout's
/// message, and leaves a sibling request's answer alone.
TEST(Engine, WideLayoutFailsOnlyItsOwnRequest) {
  const test::WideModel wide;
  const auto model = smallViterbi();
  engine::AnalysisEngine eng(engineOptions(2, 8));
  std::vector<engine::AnalysisRequest> requests(2);
  requests[0].model = &wide;
  requests[0].properties = {"P=? [ F<=3 a=8 ]"};
  requests[1].model = &model;
  requests[1].properties = {"R=? [ I=20 ]"};
  const auto responses = eng.analyzeAll(requests);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].error.find("93 bits"), std::string::npos)
      << responses[0].error;
  ASSERT_TRUE(responses[1].ok()) << responses[1].error;
  ASSERT_EQ(responses[1].results.size(), 1u);
  EXPECT_TRUE(responses[1].results[0].ok());
}

/// A probability floor that would empty a row is an error of the request
/// (in every build type), not a silently substochastic chain.
TEST(Engine, FloorThatEmptiesARowFailsTheRequest) {
  const auto chain = test::twoStateChain(0.5, 0.5);
  const auto model = smallViterbi();
  engine::AnalysisEngine eng(engineOptions(2, 8));
  std::vector<engine::AnalysisRequest> requests(2);
  requests[0].model = &chain;
  requests[0].properties = {"P=? [ F<=3 s=1 ]"};
  requests[0].options.build.probFloor = 0.6;
  requests[1].model = &model;
  requests[1].properties = {"R=? [ I=20 ]"};
  const auto responses = eng.analyzeAll(requests);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].error.find("probability floor 0.6"),
            std::string::npos)
      << responses[0].error;
  ASSERT_TRUE(responses[1].ok()) << responses[1].error;
  EXPECT_THROW((void)eng.analyze(requests[0]), std::invalid_argument);
}

TEST(Engine, FailedRequestsAreCounted) {
  // EngineStats::requests counts failed requests too, through analyze()
  // (which rethrows) and analyzeAll() (which captures the failure).
  obs::MetricsRegistry registry;
  engine::EngineOptions options;
  options.metrics = &registry;
  options.threads = 2;
  engine::AnalysisEngine eng(options);
  const auto model = test::randomModel(300, 5, 41);

  engine::AnalysisRequest ok;
  ok.model = &model;
  ok.properties = {"P=? [ F<=5 target ]"};
  ASSERT_TRUE(eng.analyze(ok).ok());

  engine::AnalysisRequest tooBig = ok;
  tooBig.options.backend = engine::Backend::kExact;
  tooBig.options.build.maxStates = 10;
  EXPECT_THROW((void)eng.analyze(tooBig), std::runtime_error);
  const auto responses = eng.analyzeAll({tooBig});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].error.empty());

  EXPECT_EQ(eng.stats().requests, 3u);
}

TEST(Engine, RequestThresholdAloneGetsTheEnginePool) {
  // A request that sets only check.exec.parallelThresholdNnz (no runner)
  // still runs its la:: kernels on the engine pool: below the default
  // threshold the kernels stay sequential, at 1 they fan out over the
  // matrix's two row blocks. Values are bitwise equal either way.
  const auto model = test::randomModel(2500, 10, 79);
  const auto run = [&](std::uint64_t threshold) {
    obs::MetricsRegistry registry;
    engine::EngineOptions options;
    options.metrics = &registry;
    options.threads = 2;
    engine::AnalysisEngine eng(options);
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = {"R=? [ I=40 ]", "P=? [ F<=20 target ]", "R=? [ S ]"};
    request.options.check.exec.parallelThresholdNnz = threshold;
    const engine::AnalysisResponse response = eng.analyze(request);
    EXPECT_TRUE(response.ok()) << response.error;
    std::vector<double> values;
    for (const auto& result : response.results) values.push_back(result.value);
    return std::make_pair(
        values, registry.histogramSnapshot("engine.pool.task_run_ns").count);
  };
  const auto built = dtmc::buildExplicit(model);
  ASSERT_GE(built.dtmc.matrix().blockCount(), 2u);
  ASSERT_LT(built.dtmc.numTransitions(),
            la::Exec::kDefaultParallelThresholdNnz);

  const auto [defaultValues, defaultTasks] =
      run(la::Exec::kDefaultParallelThresholdNnz);
  const auto [forcedValues, forcedTasks] = run(1);
  EXPECT_GT(forcedTasks, defaultTasks);
  ASSERT_EQ(forcedValues.size(), defaultValues.size());
  EXPECT_EQ(std::memcmp(forcedValues.data(), defaultValues.data(),
                        defaultValues.size() * sizeof(double)),
            0);
}

TEST(PropertyCache, SharedAcrossEngineAndCheckers) {
  // The process-wide cache serves the engine and every checker: a property
  // is parsed once, every later consumer hits. The property string is
  // unique to this test, so the counts are relative to the cache's state
  // on entry.
  pctl::PropertyCache& cache = pctl::PropertyCache::global();
  const std::string property = "R=? [ I=4243 ]";
  const auto model = smallViterbi();
  const std::uint64_t missesBefore = cache.misses();
  const std::uint64_t hitsBefore = cache.hits();

  engine::EngineOptions options;
  options.threads = 1;
  engine::AnalysisEngine eng(options);
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {property};
  // Bitwise against the unreduced checker: the long horizon would quotient
  // under kAuto.
  request.options.reduction.quotient = reduce::Toggle::kOff;
  const auto response = eng.analyze(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(cache.misses(), missesBefore + 1);
  const std::size_t sizeAfterEngine = cache.size();

  const auto build = dtmc::buildExplicit(model);
  const mc::Checker checker(build.dtmc, model);
  const auto result = checker.check(property);
  EXPECT_EQ(result.value, response.results[0].value);
  EXPECT_EQ(cache.misses(), missesBefore + 1);  // no re-parse
  EXPECT_EQ(cache.size(), sizeAfterEngine);     // no second entry
  EXPECT_GE(cache.hits(), hitsBefore + 1);
}

TEST(PropertyCache, EntryCapBoundsGrowth) {
  // The cap flushes wholesale: the map can never exceed maxEntries, so the
  // process-wide cache cannot grow without bound under per-point property
  // strings.
  pctl::PropertyCache cache(2);
  (void)cache.get("R=? [ I=1 ]");
  (void)cache.get("R=? [ I=2 ]");
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get("R=? [ I=3 ]");  // at the cap: flush, then insert
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get("R=? [ I=3 ]").reward.bound, 3u);  // still served
  EXPECT_EQ(cache.misses(), 3u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  (void)cache.get("R=? [ I=3 ]");  // cleared: parses again
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(PropertyCache, DefaultsToProcessWideGlobal) {
  pctl::PropertyCache& global = pctl::PropertyCache::global();
  const std::string unique = "R=? [ I=987654 ]";
  const std::uint64_t missesBefore = global.misses();
  const auto model = smallViterbi();
  const auto build = dtmc::buildExplicit(model);
  const mc::Checker checkerA(build.dtmc, model);
  const mc::Checker checkerB(build.dtmc, model);
  (void)checkerA.parsedProperty(unique);
  (void)checkerB.parsedProperty(unique);  // hits A's parse
  engine::AnalysisEngine eng;
  (void)eng.parsedProperty(unique);  // engine shares the same cache
  EXPECT_EQ(global.misses(), missesBefore + 1);
}

TEST(Checker, ParseCacheReturnsConsistentResults) {
  const auto model = smallViterbi();
  const auto build = dtmc::buildExplicit(model);
  const mc::Checker checker(build.dtmc, model);
  const auto first = checker.check("R=? [ I=25 ]");
  const auto second = checker.check("R=? [ I=25 ]");
  EXPECT_EQ(first.value, second.value);
  const auto parsed = checker.parsedProperty("R=? [ I=25 ]");
  EXPECT_EQ(parsed.reward.bound, 25u);
}

TEST(ThreadPool, RunsAllTasksAndPropagatesExceptions) {
  engine::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&counter] { ++counter; });
  }
  pool.run(std::move(tasks));
  EXPECT_EQ(counter.load(), 64);

  std::vector<std::function<void()>> failing;
  failing.push_back([] { throw std::runtime_error("boom"); });
  failing.push_back([&counter] { ++counter; });
  EXPECT_THROW(pool.run(std::move(failing)), std::runtime_error);
}

TEST(ThreadPool, NestedRunDoesNotDeadlock) {
  engine::ThreadPool pool(1);  // worst case: a single worker
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&] {
      std::vector<std::function<void()>> inner;
      for (int j = 0; j < 8; ++j) {
        inner.push_back([&counter] { ++counter; });
      }
      pool.run(std::move(inner));
    });
  }
  pool.run(std::move(outer));
  EXPECT_EQ(counter.load(), 32);
}

}  // namespace
}  // namespace mimostat
