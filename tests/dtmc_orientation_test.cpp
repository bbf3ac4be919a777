// dtmc::BuildOptions::orientation: single-orientation builds must keep the
// queries their resident CSR supports bit-identical to a kBoth build, and
// bounded path formulas must refuse transpose-only models with a clear
// error (they advance through the original row orientation). The engine's
// model cache must key on the orientation so mixed-orientation requests
// never alias.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "mc/bounded.hpp"
#include "mc/checker.hpp"
#include "mc/transient.hpp"
#include "obs/metrics.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

test::MatrixModel labeledChain() {
  return test::MatrixModel({{0.5, 0.5, 0.0},
                            {0.0, 0.2, 0.8},
                            {0.1, 0.0, 0.9}})
      .withLabel("goal", {0, 0, 1})
      .withRewards({1.0, 2.0, 4.0});
}

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Orientation, DefaultBuildKeepsBothOrientations) {
  const auto model = labeledChain();
  const auto build = dtmc::buildExplicit(model);
  EXPECT_TRUE(build.dtmc.matrix().hasOriginal());
  EXPECT_TRUE(build.dtmc.matrix().hasTranspose());
}

TEST(Orientation, SingleOrientationBuildsDropTheOther) {
  const auto model = labeledChain();

  dtmc::BuildOptions forwardOnly;
  forwardOnly.orientation = la::KeepOrientation::kOriginalOnly;
  const auto forward = dtmc::buildExplicit(model, forwardOnly);
  EXPECT_TRUE(forward.dtmc.matrix().hasOriginal());
  EXPECT_FALSE(forward.dtmc.matrix().hasTranspose());

  dtmc::BuildOptions backwardOnly;
  backwardOnly.orientation = la::KeepOrientation::kTransposeOnly;
  const auto backward = dtmc::buildExplicit(model, backwardOnly);
  EXPECT_FALSE(backward.dtmc.matrix().hasOriginal());
  EXPECT_TRUE(backward.dtmc.matrix().hasTranspose());
}

TEST(Orientation, TransposeOnlySupportsTransientAndSteadyBitIdentically) {
  const auto model = labeledChain();
  const auto both = dtmc::buildExplicit(model);
  dtmc::BuildOptions options;
  options.orientation = la::KeepOrientation::kTransposeOnly;
  const auto transposeOnly = dtmc::buildExplicit(model, options);

  const mc::Checker reference(both.dtmc, model);
  const mc::Checker checker(transposeOnly.dtmc, model);
  for (const char* prop : {"R=? [ S ]", "R=? [ I=25 ]", "R=? [ C<=25 ]"}) {
    SCOPED_TRACE(prop);
    EXPECT_EQ(checker.check(prop).value, reference.check(prop).value);
  }
  EXPECT_TRUE(bitEqual(mc::transientDistribution(transposeOnly.dtmc, 12),
                       mc::transientDistribution(both.dtmc, 12)));
}

TEST(Orientation, BoundedOperatorsRefuseTransposeOnlyModels) {
  const auto model = labeledChain();
  dtmc::BuildOptions options;
  options.orientation = la::KeepOrientation::kTransposeOnly;
  const auto build = dtmc::buildExplicit(model, options);
  const la::BitVector phi(3, true);
  la::BitVector psi(3);
  psi.set(2);

  const auto expectRefusal = [](const auto& callable) {
    try {
      callable();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& err) {
      // The message must name the rebuild option, not just fail opaquely.
      EXPECT_NE(std::string(err.what()).find("BuildOptions::orientation"),
                std::string::npos)
          << err.what();
    }
  };
  expectRefusal([&] { (void)mc::boundedUntil(build.dtmc, phi, psi, 5); });
  expectRefusal([&] { (void)mc::boundedFinally(build.dtmc, psi, 5); });
  expectRefusal([&] { (void)mc::boundedGlobally(build.dtmc, phi, 5); });
  expectRefusal([&] { (void)mc::nextProb(build.dtmc, psi); });
}

TEST(Orientation, CheckerRefusesBoundedButAnswersSiblings) {
  const auto model = labeledChain();
  dtmc::BuildOptions options;
  options.orientation = la::KeepOrientation::kTransposeOnly;
  const auto build = dtmc::buildExplicit(model, options);
  const auto reference = dtmc::buildExplicit(model);

  const mc::Checker checker(build.dtmc, model);
  const mc::Checker refChecker(reference.dtmc, model);

  // check() rethrows the clear refusal for a bounded formula (the plan
  // captures it, so it surfaces as a runtime_error with the message intact)…
  try {
    (void)checker.check("P=? [ F<=5 \"goal\" ]");
    FAIL() << "expected the orientation refusal to be thrown";
  } catch (const std::exception& err) {
    EXPECT_NE(std::string(err.what()).find("BuildOptions::orientation"),
              std::string::npos)
        << err.what();
  }

  // ...and checkAll captures it per property while the transient/steady
  // siblings in the same plan still answer, bit-identical to kBoth.
  const std::vector<pctl::Property> props = {
      checker.parsedProperty("P=? [ F<=5 \"goal\" ]"),
      checker.parsedProperty("R=? [ I=10 ]"),
      checker.parsedProperty("R=? [ S ]"),
  };
  const auto results = checker.checkAll(props);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_NE(results[0].error.find("orientation"), std::string::npos)
      << results[0].error;
  ASSERT_TRUE(results[1].ok()) << results[1].error;
  ASSERT_TRUE(results[2].ok()) << results[2].error;
  EXPECT_EQ(results[1].value, refChecker.check("R=? [ I=10 ]").value);
  EXPECT_EQ(results[2].value, refChecker.check("R=? [ S ]").value);
}

TEST(Orientation, OriginalOnlySupportsBoundedBitIdentically) {
  const auto model = labeledChain();
  const auto both = dtmc::buildExplicit(model);
  dtmc::BuildOptions options;
  options.orientation = la::KeepOrientation::kOriginalOnly;
  const auto forwardOnly = dtmc::buildExplicit(model, options);

  const la::BitVector phi(3, true);
  la::BitVector psi(3);
  psi.set(2);
  EXPECT_TRUE(bitEqual(mc::boundedUntil(forwardOnly.dtmc, phi, psi, 8),
                       mc::boundedUntil(both.dtmc, phi, psi, 8)));
  EXPECT_TRUE(bitEqual(mc::nextProb(forwardOnly.dtmc, psi),
                       mc::nextProb(both.dtmc, psi)));
}

TEST(Orientation, EngineCacheKeysOnOrientation) {
  const auto model = labeledChain();
  engine::AnalysisEngine eng;

  dtmc::BuildOptions both;  // kBoth
  dtmc::BuildOptions transposeOnly;
  transposeOnly.orientation = la::KeepOrientation::kTransposeOnly;

  bool hit = false;
  const auto a = eng.ensureBuilt(model, both, std::nullopt, &hit);
  EXPECT_FALSE(hit);
  // Same model, different orientation: must be a distinct cache entry, not
  // a hit that would hand back a matrix with the wrong residency.
  const auto b = eng.ensureBuilt(model, transposeOnly, std::nullopt, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a.get(), b.get());
  EXPECT_TRUE(a->dtmc.matrix().hasOriginal());
  EXPECT_FALSE(b->dtmc.matrix().hasOriginal());
  EXPECT_EQ(eng.stats().builds, 2u);

  // Repeating each orientation is a hit on its own entry.
  (void)eng.ensureBuilt(model, both, std::nullopt, &hit);
  EXPECT_TRUE(hit);
  (void)eng.ensureBuilt(model, transposeOnly, std::nullopt, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(eng.stats().builds, 2u);
  EXPECT_EQ(eng.stats().cachedModels, 2u);
}

TEST(Orientation, EngineRebuildsTransposeOnlyOnDemand) {
  const auto model = labeledChain();
  engine::AnalysisEngine eng;

  // Prime the cache with a transpose-only build via a request that never
  // needs forward access — no rebuild happens.
  engine::AnalysisRequest steady;
  steady.model = &model;
  steady.properties = {"R=? [ S ]"};
  steady.options.backend = engine::Backend::kExact;
  steady.options.build.orientation = la::KeepOrientation::kTransposeOnly;
  const auto first = eng.analyze(steady);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.orientationRebuilt);
  EXPECT_EQ(eng.stats().builds, 1u);

  // A bounded property hitting the cached transpose-only entry upgrades it
  // in place instead of refusing.
  engine::AnalysisRequest bounded;
  bounded.model = &model;
  bounded.properties = {"P=? [ F<=5 \"goal\" ]", "R=? [ S ]"};
  bounded.options = steady.options;
  const auto second = eng.analyze(bounded);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cacheHit);
  EXPECT_TRUE(second.orientationRebuilt);
  EXPECT_GT(second.buildSeconds, 0.0);
  EXPECT_EQ(eng.stats().builds, 2u);       // the upgrade is a real build...
  EXPECT_EQ(eng.stats().cachedModels, 1u);  // ...under the SAME cache key

  // Values bit-equal to a kBoth build.
  const auto reference = dtmc::buildExplicit(model);
  const mc::Checker refChecker(reference.dtmc, model);
  ASSERT_TRUE(second.results[0].ok()) << second.results[0].error;
  EXPECT_EQ(second.results[0].value,
            refChecker.check("P=? [ F<=5 \"goal\" ]").value);
  EXPECT_EQ(second.results[1].value, refChecker.check("R=? [ S ]").value);

  // The upgraded entry now serves forward traversals directly.
  const auto third = eng.analyze(bounded);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.cacheHit);
  EXPECT_FALSE(third.orientationRebuilt);
  EXPECT_EQ(eng.stats().builds, 2u);
}

TEST(Orientation, RebuildTicksTheRegistryBuildCounter) {
  // EngineStats::builds and the registry's "engine.builds" count the same
  // builds, the orientation upgrade included.
  const auto model = labeledChain();
  obs::MetricsRegistry registry;
  engine::EngineOptions options;
  options.metrics = &registry;
  engine::AnalysisEngine eng(options);

  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ S ]"};
  request.options.backend = engine::Backend::kExact;
  request.options.build.orientation = la::KeepOrientation::kTransposeOnly;
  ASSERT_TRUE(eng.analyze(request).ok());
  request.properties = {"P=? [ F<=5 \"goal\" ]"};
  const auto upgraded = eng.analyze(request);
  ASSERT_TRUE(upgraded.ok());
  ASSERT_TRUE(upgraded.orientationRebuilt);

  EXPECT_EQ(eng.stats().builds, 2u);
  EXPECT_EQ(registry.snapshot().counterValue("engine.builds"),
            eng.stats().builds);
}

TEST(Orientation, EngineKeepsRefusalWhenRebuildDisabled) {
  const auto model = labeledChain();
  engine::AnalysisEngine eng;

  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=5 \"goal\" ]", "R=? [ S ]"};
  request.options.backend = engine::Backend::kExact;
  request.options.build.orientation = la::KeepOrientation::kTransposeOnly;
  request.options.rebuildOrientation = false;
  const auto response = eng.analyze(request);
  EXPECT_FALSE(response.orientationRebuilt);
  ASSERT_EQ(response.results.size(), 2u);
  // The refusal surfaces per property; the steady sibling still answers.
  EXPECT_FALSE(response.results[0].ok());
  EXPECT_NE(response.results[0].error.find("orientation"), std::string::npos)
      << response.results[0].error;
  EXPECT_TRUE(response.results[1].ok()) << response.results[1].error;
}

}  // namespace
}  // namespace mimostat
