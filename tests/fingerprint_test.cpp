// Parameter fingerprints (dtmc::Model::fingerprint) and the engine's
// fingerprint alias: equal parameters give equal fingerprints and equal
// explorations, any one changed field changes the fingerprint, and a second
// model object with the same parameters is served from the first one's
// cache entry without exploring — bit for bit, through analyze and
// ensureBuilt — while an evicted entry takes its alias with it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "mimo/model.hpp"
#include "obs/metrics.hpp"
#include "test_models.hpp"
#include "viterbi/model_convergence.hpp"
#include "viterbi/model_full.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

viterbi::ViterbiParams smallViterbiParams() {
  viterbi::ViterbiParams params;
  params.tracebackLength = 3;
  return params;
}

/// A MIMO detector small enough to explore in a unit test.
mimo::MimoParams smallMimoParams() {
  mimo::MimoParams params;
  params.nr = 1;
  params.hLevels = 2;
  params.yLevels = 3;
  return params;
}

/// One ViterbiParams mutation per field (every field, each alone).
std::vector<std::function<void(viterbi::ViterbiParams&)>> viterbiMutations() {
  return {
      [](auto& p) { p.tracebackLength += 1; },
      [](auto& p) { p.snrDb += 0.5; },
      [](auto& p) { p.quantLevels = 8; },
      [](auto& p) { p.quantRange += 0.25; },
      [](auto& p) { p.pmCap += 1; },
      [](auto& p) { p.bmCap += 1; },
      [](auto& p) { p.bmScale = 3.0; },
      [](auto& p) { p.withErrorCounter = !p.withErrorCounter; },
      [](auto& p) { p.errorThreshold += 1; },
  };
}

/// One MimoParams mutation per field but nt (MimoDetectorModel models Nt = 1
/// only; MimoParamsHashEveryField covers it).
std::vector<std::function<void(mimo::MimoParams&)>> mimoMutations() {
  return {
      [](auto& p) { p.nr += 1; },
      [](auto& p) { p.snrDb += 0.5; },
      [](auto& p) { p.hLevels += 1; },
      [](auto& p) { p.hRange += 0.25; },
      [](auto& p) { p.yLevels += 1; },
      [](auto& p) { p.yRange += 0.25; },
  };
}

/// One overriding class: a factory for its base instance, and its
/// one-field variants (fingerprint only — never explored).
struct FingerprintCase {
  std::string name;
  std::function<std::unique_ptr<dtmc::Model>()> make;
  std::function<std::vector<std::optional<std::uint64_t>>()> variants;
};

template <class ModelT, class... Extra>
FingerprintCase viterbiCase(std::string name, Extra... extra) {
  FingerprintCase c;
  c.name = std::move(name);
  c.make = [=] {
    return std::make_unique<ModelT>(smallViterbiParams(), extra...);
  };
  c.variants = [=] {
    std::vector<std::optional<std::uint64_t>> out;
    for (const auto& mutate : viterbiMutations()) {
      viterbi::ViterbiParams params = smallViterbiParams();
      mutate(params);
      out.push_back(ModelT(params, extra...).fingerprint());
    }
    return out;
  };
  return c;
}

std::vector<FingerprintCase> cases() {
  std::vector<FingerprintCase> all;
  all.push_back(viterbiCase<viterbi::ReducedViterbiModel>("reduced viterbi"));
  all.push_back(viterbiCase<viterbi::FullViterbiModel>("full viterbi"));
  FingerprintCase convergence =
      viterbiCase<viterbi::ConvergenceViterbiModel>("convergence viterbi", 8);
  const auto paramVariants = convergence.variants;
  convergence.variants = [paramVariants] {
    auto out = paramVariants();
    out.push_back(
        viterbi::ConvergenceViterbiModel(smallViterbiParams(), 9).fingerprint());
    return out;
  };
  all.push_back(std::move(convergence));
  FingerprintCase mimoCase;
  mimoCase.name = "mimo detector";
  mimoCase.make = [] {
    return std::make_unique<mimo::MimoDetectorModel>(smallMimoParams());
  };
  mimoCase.variants = [] {
    std::vector<std::optional<std::uint64_t>> out;
    for (const auto& mutate : mimoMutations()) {
      mimo::MimoParams params = smallMimoParams();
      mutate(params);
      out.push_back(mimo::MimoDetectorModel(params).fingerprint());
    }
    return out;
  };
  all.push_back(std::move(mimoCase));
  return all;
}

TEST(Fingerprint, EqualParametersGiveEqualFingerprintsAndExplorations) {
  for (const FingerprintCase& c : cases()) {
    SCOPED_TRACE(c.name);
    const auto first = c.make();
    const auto second = c.make();
    ASSERT_TRUE(first->fingerprint().has_value());
    EXPECT_EQ(first->fingerprint(), second->fingerprint());
    const dtmc::Exploration a = dtmc::explore(*first);
    const dtmc::Exploration b = dtmc::explore(*second);
    ASSERT_TRUE(a.exact);
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.states, b.states);
  }
}

TEST(Fingerprint, EveryFieldChangesTheFingerprint) {
  std::vector<std::uint64_t> bases;
  for (const FingerprintCase& c : cases()) {
    SCOPED_TRACE(c.name);
    const std::optional<std::uint64_t> base = c.make()->fingerprint();
    ASSERT_TRUE(base.has_value());
    bases.push_back(*base);
    const auto variants = c.variants();
    for (std::size_t i = 0; i < variants.size(); ++i) {
      ASSERT_TRUE(variants[i].has_value()) << "variant " << i;
      EXPECT_NE(*variants[i], *base) << "variant " << i;
    }
  }
  // The per-class tag keeps classes apart even on shared parameters.
  for (std::size_t i = 0; i < bases.size(); ++i) {
    for (std::size_t j = i + 1; j < bases.size(); ++j) {
      EXPECT_NE(bases[i], bases[j]) << i << " vs " << j;
    }
  }
}

TEST(Fingerprint, MimoParamsHashEveryField) {
  // The parameter hash itself, so nt (which the DTMC model cannot take
  // other than 1) is covered too.
  const mimo::MimoParams base = smallMimoParams();
  auto mutations = mimoMutations();
  mutations.push_back([](auto& p) { p.nt += 1; });
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    mimo::MimoParams params = base;
    mutations[i](params);
    EXPECT_NE(mimo::hashParams(1, params), mimo::hashParams(1, base))
        << "variant " << i;
  }
  EXPECT_NE(mimo::hashParams(1, base), mimo::hashParams(2, base));
}

TEST(Fingerprint, ModelsWithoutOneReturnNullopt) {
  EXPECT_FALSE(test::twoStateChain(0.3, 0.4).fingerprint().has_value());
}

TEST(Fingerprint, SecondObjectIsServedFromTheCacheBitForBit) {
  const std::vector<std::string> properties{"R=? [ I=20 ]", "R=? [ C<=10 ]"};
  for (const FingerprintCase& c : cases()) {
    SCOPED_TRACE(c.name);
    obs::MetricsRegistry metrics;
    engine::EngineOptions options;
    options.threads = 2;
    options.metrics = &metrics;
    engine::AnalysisEngine eng(options);

    const auto first = c.make();
    engine::AnalysisRequest request;
    request.model = first.get();
    request.properties = properties;
    const auto cold = eng.analyze(request);
    ASSERT_TRUE(cold.ok()) << cold.error;
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_GT(cold.timing.keySeconds, 0.0);
    EXPECT_EQ(metrics.snapshot().counterValue("engine.fingerprint_hits"), 0u);

    // analyze: a second object, same parameters.
    const auto second = c.make();
    request.model = second.get();
    const auto warm = eng.analyze(request);
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.backend, engine::Backend::kExact);
    EXPECT_EQ(warm.timing.keySeconds, 0.0);
    EXPECT_EQ(warm.modelKey, dtmc::explore(*second).hash);
    EXPECT_EQ(warm.modelKey, cold.modelKey);
    ASSERT_EQ(warm.results.size(), cold.results.size());
    for (std::size_t i = 0; i < properties.size(); ++i) {
      ASSERT_TRUE(warm.results[i].ok()) << warm.results[i].error;
      EXPECT_EQ(std::memcmp(&warm.results[i].value, &cold.results[i].value,
                            sizeof(double)),
                0)
          << properties[i];
    }
    EXPECT_EQ(metrics.snapshot().counterValue("engine.fingerprint_hits"), 1u);

    // ensureBuilt: a third object, same parameters.
    const auto third = c.make();
    bool hit = false;
    const auto built = eng.ensureBuilt(*third, {}, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(built->signature, dtmc::explore(*third).hash);
    EXPECT_EQ(metrics.snapshot().counterValue("engine.fingerprint_hits"), 2u);
    EXPECT_EQ(eng.stats().builds, 1u);
  }
}

TEST(Fingerprint, EnsureBuiltRecordsTheAliasForAnalyze) {
  // An ensureBuilt exploration records the alias too: a later request with
  // a fresh object skips its exploration.
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.metrics = &metrics;
  engine::AnalysisEngine eng(options);
  const viterbi::ReducedViterbiModel first(smallViterbiParams());
  const auto built = eng.ensureBuilt(first);
  const viterbi::ReducedViterbiModel second(smallViterbiParams());
  engine::AnalysisRequest request;
  request.model = &second;
  request.properties = {"R=? [ I=20 ]"};
  const auto response = eng.analyze(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_TRUE(response.cacheHit);
  EXPECT_EQ(response.timing.keySeconds, 0.0);
  EXPECT_EQ(response.modelKey, built->signature);
  EXPECT_EQ(metrics.snapshot().counterValue("engine.fingerprint_hits"), 1u);
}

TEST(Fingerprint, EvictedEntriesTakeTheirAliasesWithThem) {
  // N distinct designs through a 2-entry cache: the early ones are
  // evicted, and a fresh object of an evicted design explores again
  // (cache miss, exploration paid) and answers as a fresh engine does.
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.threads = 2;
  options.maxCachedModels = 2;
  options.metrics = &metrics;
  engine::AnalysisEngine eng(options);
  const auto design = [](int i) {
    viterbi::ViterbiParams params = smallViterbiParams();
    params.snrDb = 3.0 + i;
    return std::make_unique<viterbi::ReducedViterbiModel>(params);
  };
  const std::vector<std::string> properties{"R=? [ I=20 ]"};
  constexpr int kDesigns = 6;
  for (int i = 0; i < kDesigns; ++i) {
    const auto model = design(i);
    engine::AnalysisRequest request;
    request.model = model.get();
    request.properties = properties;
    const auto response = eng.analyze(request);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_FALSE(response.cacheHit) << "design " << i;
  }
  EXPECT_LE(eng.stats().cachedModels, 2u);
  EXPECT_EQ(metrics.snapshot().counterValue("engine.fingerprint_hits"), 0u);

  for (int i = 0; i < kDesigns - 1; ++i) {
    SCOPED_TRACE("design " + std::to_string(i));
    const auto model = design(i);
    engine::AnalysisRequest request;
    request.model = model.get();
    request.properties = properties;
    const auto response = eng.analyze(request);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_FALSE(response.cacheHit);
    EXPECT_GT(response.timing.keySeconds, 0.0);
    EXPECT_EQ(response.modelKey, dtmc::explore(*model).hash);

    engine::AnalysisEngine fresh;
    const auto reference = fresh.analyze(request);
    ASSERT_TRUE(reference.ok()) << reference.error;
    EXPECT_EQ(response.results[0].value, reference.results[0].value);
  }
  EXPECT_EQ(metrics.snapshot().counterValue("engine.fingerprint_hits"), 0u);

  // The most recent design is still resident: its alias serves it.
  const auto last = design(kDesigns - 2);
  engine::AnalysisRequest request;
  request.model = last.get();
  request.properties = properties;
  const auto response = eng.analyze(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_TRUE(response.cacheHit);
  EXPECT_EQ(response.timing.keySeconds, 0.0);
  EXPECT_EQ(metrics.snapshot().counterValue("engine.fingerprint_hits"), 1u);

  // clearModelCache drops the aliases with the entries.
  eng.clearModelCache();
  const auto again = eng.analyze(request);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_FALSE(again.cacheHit);
  EXPECT_GT(again.timing.keySeconds, 0.0);
  EXPECT_EQ(metrics.snapshot().counterValue("engine.fingerprint_hits"), 1u);
}

}  // namespace
}  // namespace mimostat
