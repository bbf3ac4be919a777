// dtmc::explore — the one BFS behind buildExplicit, countReachable,
// modelSignature and the engine's cache key. The builder is checked bit for
// bit against the legacy vector-keyed builder (legacy_builder.hpp) on every
// model family, sequentially and with its rows computed on 1-, 2- and
// 8-thread pools; the key's contract and the engine's one-exploration-per-
// request guarantee are checked through the engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/signature.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "legacy_builder.hpp"
#include "legacy_loops.hpp"
#include "mimo/model.hpp"
#include "obs/metrics.hpp"
#include "test_models.hpp"
#include "viterbi/model_convergence.hpp"
#include "viterbi/model_full.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

constexpr std::size_t kPoolSizes[] = {1, 2, 8};

/// Everything an exploration reports, bit for bit.
void expectSameExploration(const dtmc::Exploration& got,
                           const dtmc::Exploration& want) {
  EXPECT_EQ(got.hash, want.hash);
  EXPECT_EQ(got.exact, want.exact);
  EXPECT_EQ(got.states, want.states);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.reachabilityIterations, want.reachabilityIterations);
  EXPECT_EQ(got.worstMassDeviation, want.worstMassDeviation);
  EXPECT_EQ(got.raw.keys, want.raw.keys);
  EXPECT_EQ(got.raw.rowPtr, want.raw.rowPtr);
  EXPECT_EQ(got.raw.col, want.raw.col);
  EXPECT_TRUE(bitEqual(got.raw.val, want.raw.val));
  EXPECT_TRUE(bitEqual(got.raw.initial, want.raw.initial));
}

/// Every array the builder produces, bit for bit, against the legacy
/// builder — sequentially and with rows computed on 1/2/8-thread pools,
/// whose explorations must also equal the sequential one field for field.
void expectLegacyBuild(const dtmc::Model& model,
                       const dtmc::BuildOptions& options = {}) {
  const dtmc::BuildResult want = test::legacyBuildExplicit(model, options);
  const auto expectLegacy = [&](const dtmc::BuildResult& got) {
    EXPECT_GT(got.dtmc.numStates(), 0u);
    EXPECT_TRUE(test::sameStateTables(got.dtmc, want.dtmc));
    EXPECT_EQ(got.dtmc.rowPtr(), want.dtmc.rowPtr());
    EXPECT_EQ(got.dtmc.col(), want.dtmc.col());
    EXPECT_TRUE(bitEqual(got.dtmc.val(), want.dtmc.val()));
    EXPECT_TRUE(bitEqual(got.dtmc.initialDistribution(),
                         want.dtmc.initialDistribution()));
    EXPECT_EQ(got.reachabilityIterations, want.reachabilityIterations);
  };
  expectLegacy(dtmc::buildExplicit(model, options));

  dtmc::ExploreOptions exploreOptions;
  exploreOptions.probFloor = options.probFloor;
  const dtmc::Exploration sequential = dtmc::explore(model, exploreOptions);
  for (const std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    engine::ThreadPool pool(threads);
    const la::TaskRunner runner = engine::laRunnerFor(pool);
    expectSameExploration(dtmc::explore(model, exploreOptions, runner),
                          sequential);
    expectLegacy(dtmc::buildExplicit(model, options, runner));
  }
}

viterbi::ViterbiParams viterbiParams(int traceLength) {
  viterbi::ViterbiParams p;
  p.tracebackLength = traceLength;
  p.quantLevels = 4;
  p.pmCap = 4;
  return p;
}

/// Test-sized 1 x nr MIMO detector (the full model stays small).
mimo::MimoParams mimoParams(int nr) {
  mimo::MimoParams p;
  p.nr = nr;
  p.snrDb = 6.0;
  p.hLevels = 2;
  p.hRange = 1.2;
  p.yLevels = nr > 2 ? 2 : 3;
  p.yRange = 1.8;
  return p;
}

/// Emits duplicate targets (and a self-loop among them) in an order the
/// sort must rearrange, so rows exercise the merge order.
class DuplicateTargetsModel : public dtmc::Model {
 public:
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"s", 0, 6}, {"t", -3, 3}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{0, 0}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    const int next = (s[0] + 1) % 7;
    const int tilt = s[1] < 3 ? s[1] + 1 : -3;
    out.add(0.1, {next, tilt});
    out.add(0.2, {s[0], s[1]});
    out.add(0.3, {next, tilt});
    out.add(0.15, {0, s[1]});
    out.add(0.05, {next, tilt});
    out.add(0.2, {0, s[1]});
  }
};

/// The same chain as DuplicateTargetsModel with every duplicate merged in
/// sorted-target order — the build, and so the key, must be identical.
class MergedTargetsModel : public dtmc::Model {
 public:
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return DuplicateTargetsModel().variables();
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return DuplicateTargetsModel().initialStates();
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    DuplicateTargetsModel().transitions(s, out);
    (void)dtmc::normalizeTransitions(out.entries(), 0.0);
  }
};

/// 31 + 31 + 2 = 64 bits, and the state at every variable's maximum packs
/// to the all-ones key (as does nothing else); 0 is reachable too.
class AllOnesKeyModel : public dtmc::Model {
 public:
  static constexpr std::int32_t kMax = 0x7FFFFFFF;
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"a", 0, kMax}, {"b", 0, kMax}, {"c", 0, 3}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{kMax, kMax, 3}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    if (s[2] == 3) {
      out.add(0.5, {0, 0, 0});
      out.add(0.5, {kMax, kMax, 3});
    } else if (s[2] < 2) {
      out.add(0.25, {kMax, s[1], s[2] + 1});
      out.add(0.75, {kMax, kMax, 3});
    }  // c == 2: dead end
  }
};

TEST(ExploreOracle, ViterbiModelsMatchLegacyBuilder) {
  expectLegacyBuild(viterbi::ReducedViterbiModel(viterbi::ViterbiParams{}));
  expectLegacyBuild(viterbi::ReducedViterbiModel(viterbiParams(4)));
  viterbi::ViterbiParams withErrs = viterbiParams(3);
  withErrs.withErrorCounter = true;
  expectLegacyBuild(viterbi::ReducedViterbiModel(withErrs));
  expectLegacyBuild(viterbi::FullViterbiModel(viterbiParams(3)));
  expectLegacyBuild(viterbi::ConvergenceViterbiModel(viterbiParams(4), 8));
}

TEST(ExploreOracle, MimoDetectorsMatchLegacyBuilder) {
  expectLegacyBuild(mimo::MimoDetectorModel(mimoParams(2)));  // 1x2
  expectLegacyBuild(mimo::MimoDetectorModel(mimoParams(4)));  // 1x4
}

/// The paper's design at snrDb + `offset` (perfbench sweeps +-2 dB).
mimo::MimoParams paperParams(int nr, double offset) {
  mimo::MimoParams p = nr == 2 ? mimo::mimo1x2Params() : mimo::mimo1x4Params();
  p.snrDb += offset;
  return p;
}

/// At paper size, the sink-writing model with its table decision explores
/// bit for bit as the verbatim vector-building model with its recomputed
/// decision does, and the builder matches the legacy builder on it,
/// sequentially and on 1/2/8-thread pools.
void expectVerbatimMimo(int nr, std::uint64_t pinnedHash) {
  for (const double offset : {-2.0, 0.0, 2.0}) {
    SCOPED_TRACE("1x" + std::to_string(nr) + " at " +
                 std::to_string(offset) + " dB");
    const mimo::MimoParams params = paperParams(nr, offset);
    const mimo::MimoDetectorModel model(params);
    const dtmc::Exploration verbatim =
        dtmc::explore(test::LegacyMimoDetectorModel(params));
    EXPECT_TRUE(verbatim.exact);
    // The paper design's key, as every earlier build computed it.
    if (offset == 0.0) EXPECT_EQ(verbatim.hash, pinnedHash);
    expectSameExploration(dtmc::explore(model), verbatim);
    expectLegacyBuild(model);
  }
}

TEST(ExploreOracle, PaperMimo1x2MatchesTheVerbatimModel) {
  expectVerbatimMimo(2, 0x5b1260c5815624adULL);
}

TEST(ExploreOracle, PaperMimo1x4MatchesTheVerbatimModel) {
  expectVerbatimMimo(4, 0xd079e401ddd3e860ULL);
}

/// 31 + 31 + 2 = 64 bits. The root (c = 0) fans out to kWide level-1 states
/// (c = 1), numbered a = 1..kWide, whose rows share their new targets
/// (c = 2) in every way a window's numbering can meet them: a pair target
/// shared by consecutive rows (duplicates inside a chunk, and across a chunk
/// boundary), a target shared by rows 61 apart (first claimed in an earlier
/// window, or claimed across the chunks of one window), the all-ones key
/// (first claimed at row 100, mid-window, then repeated by every later
/// chunk) and eight unique targets per row, with a back edge to the root.
/// Level 2 returns to the root or the all-ones state, so its entries are
/// almost all numbered already.
class SharedTargetsModel : public dtmc::Model {
 public:
  static constexpr std::int32_t kMax = 0x7FFFFFFF;
  static constexpr std::int32_t kWide = 4096;
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"a", 0, kMax}, {"b", 0, kMax}, {"c", 0, 3}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{0, 0, 0}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    if (s[2] == 0) {
      for (int k = 0; k < kWide; ++k) out.add(1.0 / kWide, {1 + k, 0, 1});
    } else if (s[2] == 1) {
      const int k = s[0] - 1;
      const double p = 1.0 / 12.0;
      out.add(p, {k / 2, 1, 2});
      out.add(p, {k % 61, 2, 2});
      out.add(p, k >= 100 ? dtmc::State{kMax, kMax, 3} : dtmc::State{0, 0, 0});
      for (int j = 0; j < 8; ++j) out.add(p, {k * 8 + j, 3, 2});
      out.add(p, {0, 0, 0});
    } else {
      out.add(0.5, {0, 0, 0});
      out.add(0.5, {kMax, kMax, 3});
    }
  }
};

TEST(ExploreOracle, SharedNewTargetsMatchLegacyBuilder) {
  expectLegacyBuild(SharedTargetsModel());
}

TEST(ExploreOracle, EdgeCasesMatchLegacyBuilder) {
  expectLegacyBuild(test::MatrixModel({{0.0, 1.0, 0.0},
                                       {0.0, 0.0, 1.0},
                                       {0.0, 0.0, 0.0}}));  // dead end
  expectLegacyBuild(DuplicateTargetsModel());
  expectLegacyBuild(AllOnesKeyModel());
  // Multiple initial states, one listed twice (weight 2/3).
  expectLegacyBuild(test::MatrixModel(
      {{0.5, 0.5, 0, 0}, {0, 0, 1.0, 0}, {0, 0, 0.5, 0.5}, {1.0, 0, 0, 0}},
      {2, 0, 2}));
  expectLegacyBuild(test::randomModel(60, 5, 9));
}

TEST(ExploreOracle, ProbabilityFloorMatchesLegacyBuilder) {
  dtmc::BuildOptions floored;
  floored.probFloor = 0.16;
  expectLegacyBuild(DuplicateTargetsModel(), floored);
  floored.probFloor = 1e-3;
  expectLegacyBuild(viterbi::ReducedViterbiModel(viterbiParams(4)), floored);
  expectLegacyBuild(test::randomModel(60, 8, 21), floored);
}

TEST(ExploreOracle, MaxStatesOverflowThrowsLikeLegacy) {
  dtmc::BuildOptions options;
  options.maxStates = 5;
  const auto model = test::lineModel(10);
  engine::ThreadPool pool(8);
  const la::TaskRunner runner = engine::laRunnerFor(pool);
  for (const int builder : {0, 1, 2}) {  // legacy, sequential, on the pool
    try {
      (void)(builder == 0   ? test::legacyBuildExplicit(model, options)
             : builder == 1 ? dtmc::buildExplicit(model, options)
                            : dtmc::buildExplicit(model, options, runner));
      ADD_FAILURE() << "no throw (builder " << builder << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(),
                   "buildExplicit: reachable state space exceeds maxStates");
    }
  }
  // Exactly maxStates reachable states still build.
  options.maxStates = 10;
  EXPECT_EQ(dtmc::buildExplicit(model, options).dtmc.numStates(), 10u);
}

TEST(Explore, RejectsLayoutsWiderThan64Bits) {
  const test::WideModel model;
  EXPECT_THROW((void)dtmc::explore(model), std::invalid_argument);
  EXPECT_THROW((void)dtmc::buildExplicit(model), std::invalid_argument);
  EXPECT_THROW((void)dtmc::countReachable(model), std::invalid_argument);
  EXPECT_THROW((void)dtmc::modelSignature(model), std::invalid_argument);
  engine::ThreadPool pool(2);
  EXPECT_THROW((void)dtmc::explore(model, {}, engine::laRunnerFor(pool)),
               std::invalid_argument);
}

TEST(Explore, KeysWithoutMatrixMatchBuildCounts) {
  const viterbi::ReducedViterbiModel model(viterbiParams(4));
  dtmc::ExploreOptions lean;
  lean.keepMatrix = false;
  const dtmc::Exploration counted = dtmc::explore(model, lean);
  const dtmc::Exploration full = dtmc::explore(model);
  EXPECT_EQ(counted.hash, full.hash);  // the key never depends on keepMatrix
  EXPECT_TRUE(counted.exact);
  EXPECT_TRUE(counted.raw.rowPtr.empty());
  EXPECT_TRUE(counted.raw.keys.empty());
  EXPECT_EQ(full.raw.keys.size(), full.states);
  EXPECT_EQ(full.raw.col.size(), full.transitions);
  EXPECT_THROW((void)dtmc::buildFromExploration(counted, {}),
               std::invalid_argument);

  const auto built = dtmc::buildFromExploration(full, {});
  EXPECT_EQ(built.dtmc.numStates(), counted.states);
  EXPECT_EQ(built.dtmc.numTransitions(), counted.transitions);
  EXPECT_EQ(built.reachabilityIterations, counted.reachabilityIterations);
}

// ------------------------------------------------------ rows on the pool

/// State 0 fans out to 1..40 and state k in 1..40 moves to 40 + k, which is
/// absorbing. transitions() throws on the `failing` states, so level 2
/// (states 1..40, numbered as their values) fails inside one window, in
/// different tasks.
class FailingFanOutModel : public dtmc::Model {
 public:
  explicit FailingFanOutModel(std::vector<int> failing)
      : failing_(std::move(failing)) {}
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"s", 0, 80}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{0}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    if (s[0] == 0) {
      for (int k = 1; k <= 40; ++k) out.add(1.0 / 40.0, {k});
      return;
    }
    for (const int failing : failing_) {
      if (s[0] == failing) {
        throw std::runtime_error("state " + std::to_string(failing));
      }
    }
    if (s[0] <= 40) out.add(1.0, {s[0] + 40});
  }

 private:
  std::vector<int> failing_;
};

/// The message `explore` throws, or "" when it returns.
std::string exploreError(const dtmc::Model& model,
                         const dtmc::ExploreOptions& options,
                         const la::TaskRunner& runner = {}) {
  try {
    (void)dtmc::explore(model, options, runner);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ExploreParallel, TruncationInsideAWindowMatchesSequential) {
  // 8,193 states; level 7 (states 1,857..7,552) runs as one 32-state probe
  // and one 5,664-state window spread over the pool, so these caps stop
  // the BFS inside a probe, inside a spread window and mid-row.
  const viterbi::ReducedViterbiModel model(viterbi::ViterbiParams{});
  for (const std::uint64_t cap : {40u, 1870u, 3000u, 7600u}) {
    for (const bool keepMatrix : {true, false}) {
      dtmc::ExploreOptions options;
      options.maxStates = cap;
      options.keepMatrix = keepMatrix;
      const dtmc::Exploration sequential = dtmc::explore(model, options);
      EXPECT_FALSE(sequential.exact) << cap;
      EXPECT_EQ(sequential.states, cap + 1);
      for (const std::size_t threads : kPoolSizes) {
        SCOPED_TRACE(std::to_string(cap) + " cap, " +
                     std::to_string(threads) + " threads");
        engine::ThreadPool pool(threads);
        expectSameExploration(
            dtmc::explore(model, options, engine::laRunnerFor(pool)),
            sequential);
      }
    }
  }
}

TEST(ExploreParallel, DefaultViterbiKeyIsPinned) {
  const viterbi::ReducedViterbiModel model(viterbi::ViterbiParams{});
  EXPECT_EQ(dtmc::explore(model).hash, 0xcedc4db66c2b4d70ULL);
  for (const std::size_t threads : kPoolSizes) {
    engine::ThreadPool pool(threads);
    EXPECT_EQ(dtmc::explore(model, {}, engine::laRunnerFor(pool)).hash,
              0xcedc4db66c2b4d70ULL)
        << threads << " threads";
  }
}

TEST(ExploreParallel, TruncationAmongSharedTargetsMatchesSequential) {
  // Level 2's first window (rows 0..31) numbers states 4,097..4,400; the
  // second starts at 4,401 and its first chunk numbers the all-ones key,
  // which all later chunks repeat, as state 5,017. These caps stop the BFS
  // next to in-chunk, cross-chunk and earlier-window duplicates of the
  // state that truncates, and on the all-ones key itself (cap 5,017).
  const SharedTargetsModel model;
  std::vector<std::uint64_t> caps = {4096, 4097, 4100, 4398, 4400};
  for (std::uint64_t cap = 4401; cap < 4441; cap += 3) caps.push_back(cap);
  for (std::uint64_t cap = 5010; cap < 5024; ++cap) caps.push_back(cap);
  for (const std::uint64_t cap : caps) {
    for (const bool keepMatrix : {true, false}) {
      dtmc::ExploreOptions options;
      options.maxStates = cap;
      options.keepMatrix = keepMatrix;
      const dtmc::Exploration sequential = dtmc::explore(model, options);
      EXPECT_FALSE(sequential.exact) << cap;
      EXPECT_EQ(sequential.states, cap + 1);
      for (const std::size_t threads : kPoolSizes) {
        SCOPED_TRACE(std::to_string(cap) + " cap, " +
                     std::to_string(threads) + " threads");
        engine::ThreadPool pool(threads);
        expectSameExploration(
            dtmc::explore(model, options, engine::laRunnerFor(pool)),
            sequential);
      }
    }
  }
}

TEST(ExploreParallel, LowestFailingStateWins) {
  const FailingFanOutModel model({30, 7});
  EXPECT_EQ(exploreError(model, {}), "state 7");
  for (const std::size_t threads : kPoolSizes) {
    engine::ThreadPool pool(threads);
    for (int repeat = 0; repeat < 20; ++repeat) {
      EXPECT_EQ(exploreError(model, {}, engine::laRunnerFor(pool)), "state 7")
          << threads << " threads";
    }
  }
}

TEST(ExploreParallel, FailurePastTheCapIsNeverRaised) {
  // The cap is reached while emitting state 10's row; state 20 fails in
  // the same window but the sequential BFS never expands it.
  const FailingFanOutModel model({20});
  dtmc::ExploreOptions options;
  options.maxStates = 50;
  const dtmc::Exploration sequential = dtmc::explore(model, options);
  EXPECT_FALSE(sequential.exact);
  EXPECT_EQ(sequential.states, 51u);
  for (const std::size_t threads : kPoolSizes) {
    engine::ThreadPool pool(threads);
    const la::TaskRunner runner = engine::laRunnerFor(pool);
    EXPECT_EQ(exploreError(model, options, runner), "");
    expectSameExploration(dtmc::explore(model, options, runner), sequential);
  }
}

// --------------------------------------------------------------- the key

TEST(ExploreKey, StableAcrossRunsAndThreadCounts) {
  const viterbi::ReducedViterbiModel model(viterbiParams(4));
  const std::uint64_t once = dtmc::modelSignature(model).hash;
  EXPECT_EQ(dtmc::modelSignature(model).hash, once);
  EXPECT_EQ(dtmc::explore(model).hash, once);

  std::vector<std::uint64_t> keys;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::EngineOptions options;
    options.threads = threads;
    engine::AnalysisEngine eng(options);
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = {"R=? [ I=5 ]"};
    keys.push_back(eng.analyze(request).modelKey);
  }
  EXPECT_EQ(keys[0], keys[1]);
  EXPECT_EQ(keys[0], keys[2]);
}

TEST(ExploreKey, TruncationIsFoldedIn) {
  const auto model = test::gamblersRuin(50, 0.5, 25);
  dtmc::ExploreOptions capped;
  capped.maxStates = 5;
  const dtmc::Exploration a = dtmc::explore(model, capped);
  capped.maxStates = 6;
  const dtmc::Exploration b = dtmc::explore(model, capped);
  const dtmc::Exploration exact = dtmc::explore(model);
  EXPECT_FALSE(a.exact);
  EXPECT_EQ(a.states, 6u);
  EXPECT_TRUE(a.raw.rowPtr.empty());  // a truncated exploration keeps nothing
  EXPECT_TRUE(exact.exact);
  EXPECT_NE(a.hash, exact.hash);
  EXPECT_NE(b.hash, exact.hash);
  EXPECT_NE(a.hash, b.hash);
  EXPECT_THROW((void)dtmc::buildFromExploration(a, {}), std::runtime_error);

  // Through the engine: a state-budget-truncated sampling request never
  // reports the exact request's key.
  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=5 s=0 ]"};
  request.options.smc.paths = 100;
  const auto exactResponse = eng.analyze(request);
  request.options.stateBudget = 4;
  request.options.backend = engine::Backend::kSampling;
  const auto sampled = eng.analyze(request);
  EXPECT_EQ(exactResponse.backend, engine::Backend::kExact);
  EXPECT_NE(sampled.modelKey, exactResponse.modelKey);
}

TEST(ExploreKey, BuildOptionsNeverShareAKey) {
  const viterbi::ReducedViterbiModel model(viterbiParams(4));
  engine::AnalysisEngine eng;
  std::vector<std::uint64_t> keys;
  for (int variant = 0; variant < 3; ++variant) {
    dtmc::BuildOptions options;
    if (variant == 1) options.probFloor = 1e-3;
    if (variant == 2) options.probFloor = 2e-3;
    keys.push_back(eng.ensureBuilt(model, options)->signature);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
  }
  EXPECT_EQ(eng.stats().builds, 3u);
}

TEST(ExploreKey, IdenticalBuildsShareAKey) {
  // Duplicate emissions and their merged sum build the same DTMC, so they
  // share one cache entry.
  const DuplicateTargetsModel duplicates;
  const MergedTargetsModel merged;
  EXPECT_EQ(dtmc::modelSignature(duplicates).hash,
            dtmc::modelSignature(merged).hash);
  engine::AnalysisEngine eng;
  (void)eng.ensureBuilt(duplicates);
  bool hit = false;
  (void)eng.ensureBuilt(merged, {}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(eng.stats().builds, 1u);
}

// ------------------------------------------- one exploration per request

/// Forwards to a model and counts transitions() calls.
class CountingModel : public dtmc::Model {
 public:
  explicit CountingModel(const dtmc::Model& inner) : inner_(inner) {}
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return inner_.variables();
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return inner_.initialStates();
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    inner_.transitions(s, out);
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    return inner_.atom(s, name);
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override {
    return inner_.stateReward(s, name);
  }
  /// Calls since the last take().
  std::uint64_t take() const {
    return calls_.exchange(0, std::memory_order_relaxed);
  }

 private:
  const dtmc::Model& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

TEST(ExploreOnce, ColdWarmAndModelKeyRequests) {
  const viterbi::ReducedViterbiModel inner(viterbiParams(4));
  const CountingModel model(inner);
  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=20 ]", "P=? [ G<=20 !flag ]"};

  const auto cold = eng.analyze(request);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.cacheHit);
  EXPECT_GT(cold.states, 0u);
  EXPECT_EQ(model.take(), cold.states);  // one call per reachable state

  const auto warm = eng.analyze(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(model.take(), warm.states);
  EXPECT_EQ(eng.stats().builds, 1u);

  // ensureBuilt explores once too.
  engine::AnalysisEngine fresh;
  const auto built = fresh.ensureBuilt(model);
  EXPECT_EQ(model.take(), built->dtmc.numStates());
}

TEST(ExploreOnce, OneCallPerStateOnThePool) {
  const viterbi::ReducedViterbiModel inner(viterbi::ViterbiParams{});
  const CountingModel model(inner);
  for (const std::size_t threads : kPoolSizes) {
    engine::ThreadPool pool(threads);
    const dtmc::Exploration e =
        dtmc::explore(model, {}, engine::laRunnerFor(pool));
    EXPECT_EQ(model.take(), e.states) << threads << " threads";

    engine::EngineOptions options;
    options.threads = threads;
    engine::AnalysisEngine eng(options);
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = {"R=? [ I=20 ]"};
    const auto response = eng.analyze(request);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(model.take(), response.states) << threads << " threads";
  }
}

TEST(ExploreOnce, ConcurrentColdRequestsShareOneEntry) {
  const viterbi::ReducedViterbiModel model(viterbiParams(4));
  std::vector<std::vector<double>> valuesByThreads;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::EngineOptions options;
    options.threads = threads;
    engine::AnalysisEngine eng(options);
    std::vector<engine::AnalysisRequest> requests(2);
    for (auto& request : requests) {
      request.model = &model;
      request.properties = {"R=? [ I=30 ]", "P=? [ G<=30 !flag ]",
                            "R=? [ S ]"};
    }
    const auto responses = eng.analyzeAll(requests);
    const engine::EngineStats stats = eng.stats();
    EXPECT_EQ(stats.builds, 1u) << threads << " threads";
    EXPECT_EQ(stats.cacheHits, 1u) << threads << " threads";
    EXPECT_EQ(stats.cachedModels, 1u) << threads << " threads";
    std::vector<double> values;
    for (const auto& response : responses) {
      ASSERT_TRUE(response.ok()) << response.error;
      for (const auto& result : response.results) {
        values.push_back(result.value);
      }
    }
    EXPECT_TRUE(bitEqual(
        std::vector<double>(values.begin(), values.begin() + 3),
        std::vector<double>(values.begin() + 3, values.end())));
    valuesByThreads.push_back(values);
  }
  EXPECT_TRUE(bitEqual(valuesByThreads[0], valuesByThreads[1]));
  EXPECT_TRUE(bitEqual(valuesByThreads[0], valuesByThreads[2]));
}

TEST(ExploreOnce, PhasesCoverTheRequest) {
  // key + build + reduce + plan + check account for the request's
  // wall-clock, cold and warm (plan overlaps check, so the sum may pass 1).
  // The warm request's fingerprint names the cached build, so it pays no
  // key exploration.
  const viterbi::ReducedViterbiModel model(viterbi::ViterbiParams{});
  obs::MetricsRegistry registry;
  engine::EngineOptions options;
  options.metrics = &registry;
  options.threads = 2;
  engine::AnalysisEngine eng(options);
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=300 ]", "P=? [ G<=300 !flag ]"};
  for (const bool warm : {false, true}) {
    const auto response = eng.analyze(request);
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.cacheHit, warm);
    const engine::PhaseTiming& t = response.timing;
    if (warm) {
      EXPECT_EQ(t.keySeconds, 0.0);
    } else {
      EXPECT_GT(t.keySeconds, 0.0);
    }
    const double phases = t.keySeconds + t.buildSeconds + t.reduceSeconds +
                          t.planSeconds + t.checkSeconds;
    EXPECT_GE(phases, 0.95 * t.totalSeconds)
        << (warm ? "warm" : "cold") << ": key " << t.keySeconds << " build "
        << t.buildSeconds << " reduce " << t.reduceSeconds << " plan "
        << t.planSeconds << " check " << t.checkSeconds << " total "
        << t.totalSeconds;
  }
}

}  // namespace
}  // namespace mimostat
