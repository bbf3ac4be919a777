#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/thread_pool.hpp"
#include "la/bit_vector.hpp"
#include "lump/bisim.hpp"
#include "legacy_loops.hpp"
#include "lump/verify.hpp"
#include "test_models.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

TEST(Lump, SymmetricStatesMerge) {
  // States 1 and 2 are exact copies; both lead to 3.
  test::MatrixModel model({{0, 0.5, 0.5, 0},
                           {0, 0, 0, 1.0},
                           {0, 0, 0, 1.0},
                           {0, 0, 0, 1.0}});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const lump::InitialKeys keys(d.numStates(), 0);  // no distinctions
  const auto result = lump::lump(d, keys);
  EXPECT_LT(result.partition.numBlocks, d.numStates());
  EXPECT_EQ(result.quotient.numStates(), result.partition.numBlocks);
  EXPECT_LT(test::maxRowDeviation(result.quotient), 1e-12);
  const auto report = lump::verifyLumpable(d, result.partition);
  EXPECT_TRUE(report.lumpable) << report.worstMismatch;
}

TEST(Lump, InitialKeysPreventMerging) {
  test::MatrixModel model({{0, 0.5, 0.5, 0},
                           {0, 0, 0, 1.0},
                           {0, 0, 0, 1.0},
                           {0, 0, 0, 1.0}});
  const auto d = dtmc::buildExplicit(model).dtmc;
  // Without keys the twins (and the absorbing tail, which is bisimilar to
  // its deterministic predecessors) collapse.
  const auto coarse = lump::lump(d, lump::InitialKeys(d.numStates(), 0));
  // Distinguishing one twin splits its block; the result must be strictly
  // finer and still lumpable.
  lump::InitialKeys keys(d.numStates(), 0);
  keys[1] = 99;
  const auto fine = lump::lump(d, keys);
  EXPECT_GT(fine.partition.numBlocks, coarse.partition.numBlocks);
  EXPECT_TRUE(lump::verifyLumpable(d, fine.partition).lumpable);
  // The distinguished state sits alone.
  std::uint32_t sameAsOne = 0;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (fine.partition.blockOf[s] == fine.partition.blockOf[1]) ++sameAsOne;
  }
  EXPECT_EQ(sameAsOne, 1u);
}

TEST(Lump, QuotientPreservesTransientRewards) {
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    const auto model = test::randomModel(60, 3, seed);
    const auto d = dtmc::buildExplicit(model).dtmc;
    const auto reward = d.evalReward(model, "");
    const auto keys =
        lump::keysFromMasksAndRewards(reward.size(), {}, {&reward});
    const auto result = lump::lump(d, keys);
    ASSERT_TRUE(lump::verifyLumpable(d, result.partition).lumpable);
    // Quotient reward vector = representative rewards.
    std::vector<double> quotientReward(result.quotient.numStates());
    for (std::uint32_t b = 0; b < result.quotient.numStates(); ++b) {
      quotientReward[b] = reward[result.representative[b]];
    }
    for (const std::uint64_t t : {1ULL, 5ULL, 17ULL}) {
      EXPECT_NEAR(test::legacyInstantaneous(d, reward, t),
                  test::legacyInstantaneous(result.quotient, quotientReward, t),
                  1e-10)
          << "seed " << seed << " t " << t;
    }
  }
}

TEST(Lump, TrivialKeysGiveTrivialQuotient) {
  // With no distinguishing keys every stochastic chain lumps to a single
  // block (the coarsest bisimulation ignores all structure).
  test::MatrixModel model({{0.1, 0.9, 0}, {0, 0.2, 0.8}, {0.5, 0, 0.5}});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto trivial = lump::lump(d, lump::InitialKeys(d.numStates(), 0));
  EXPECT_EQ(trivial.partition.numBlocks, 1u);
}

TEST(Lump, DistinctKeysPreventAnyMergingInAsymmetricChain) {
  // Distinct self-loop probabilities: once any state is distinguished, the
  // refinement separates all of them.
  test::MatrixModel model({{0.1, 0.9, 0}, {0, 0.2, 0.8}, {0.5, 0, 0.5}});
  const auto d = dtmc::buildExplicit(model).dtmc;
  lump::InitialKeys keys(d.numStates(), 0);
  keys[0] = 1;  // mark only state 0; dynamics must split 1 from 2
  const auto result = lump::lump(d, keys);
  EXPECT_EQ(result.partition.numBlocks, 3u);
  EXPECT_TRUE(lump::verifyLumpable(d, result.partition).lumpable);
}

TEST(Lump, SymmetricBanksCollapseToCounts) {
  // k iid two-state components with a symmetric reward lump to k+1 states
  // (the count of components in state 1).
  const test::SymmetricBanksModel model(4, 0.3, 0.2);
  const auto d = dtmc::buildExplicit(model).dtmc;
  EXPECT_EQ(d.numStates(), 16u);
  const auto reward = d.evalReward(model, "");
  const auto keys =
      lump::keysFromMasksAndRewards(reward.size(), {}, {&reward});
  const auto result = lump::lump(d, keys);
  EXPECT_EQ(result.partition.numBlocks, 5u);
  EXPECT_TRUE(lump::verifyLumpable(d, result.partition).lumpable);
}

TEST(Lump, PartitionFromMapAndWitness) {
  // Deliberately wrong partition: merging states with different dynamics
  // must be reported as non-lumpable with a witness pair.
  test::MatrixModel model({{0.1, 0.9, 0}, {0, 0.2, 0.8}, {0.5, 0, 0.5}});
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto partition = lump::partitionFromMap({0, 0, 1});
  const auto report = lump::verifyLumpable(d, partition);
  EXPECT_FALSE(report.lumpable);
  EXPECT_GT(report.worstMismatch, 0.1);
  EXPECT_NE(report.witnessA, report.witnessB);
}

TEST(Lump, CompareProperties) {
  const test::SymmetricBanksModel model(3, 0.25, 0.35);
  const auto full = dtmc::buildExplicit(model);
  // Lump and wrap the quotient with the same model for atom evaluation
  // (representative states preserve the variable layout).
  const auto reward = full.dtmc.evalReward(model, "");
  const auto keys =
      lump::keysFromMasksAndRewards(reward.size(), {}, {&reward});
  const auto lumped = lump::lump(full.dtmc, keys);
  const auto comparisons = lump::compareProperties(
      full.dtmc, model, lumped.quotient, model, {"R=? [ I=7 ]", "R=? [ C<=9 ]"});
  for (const auto& cmp : comparisons) {
    EXPECT_LT(cmp.absDiff, 1e-10) << cmp.property;
  }
}

// --- edge cases for the reduce:: stage's substrate --------------------

/// Hand-built ExplicitDtmc (fromRaw), so the state table may contain
/// unreachable states — buildExplicit never emits those.
dtmc::ExplicitDtmc rawChain(const std::vector<std::vector<double>>& rows,
                            std::vector<double> initial) {
  dtmc::ExplicitDtmc::Raw raw;
  raw.layout = dtmc::VarLayout(
      {{"s", 0, static_cast<std::int32_t>(rows.size() - 1)}});
  raw.rowPtr.push_back(0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows[i].size(); ++j) {
      if (rows[i][j] != 0.0) {
        raw.col.push_back(static_cast<std::uint32_t>(j));
        raw.val.push_back(rows[i][j]);
      }
    }
    raw.rowPtr.push_back(raw.col.size());
    raw.keys.push_back(i);  // the key of s = i
  }
  raw.initial = std::move(initial);
  return dtmc::ExplicitDtmc::fromRaw(std::move(raw));
}

TEST(LumpEdge, UnreachableStatesMergeWithBisimilarReachableOnes) {
  // 0 -> 1 -> 2 (absorbing); 3 is unreachable but behaves exactly like 1.
  const auto d = rawChain({{0, 1.0, 0, 0},
                           {0, 0, 1.0, 0},
                           {0, 0, 1.0, 0},
                           {0, 0, 1.0, 0}},
                          {1.0, 0, 0, 0});
  lump::InitialKeys keys(4, 0);
  keys[2] = 7;  // distinguish the absorbing target
  const auto result = lump::lump(d, keys);
  EXPECT_EQ(result.partition.numBlocks, 3u);
  EXPECT_EQ(result.partition.blockOf[1], result.partition.blockOf[3]);
  EXPECT_NE(result.partition.blockOf[0], result.partition.blockOf[1]);
  EXPECT_TRUE(lump::verifyLumpable(d, result.partition).lumpable);
  // The unreachable member adds no initial mass to its block.
  double totalInitial = 0.0;
  for (const double p : result.quotient.initialDistribution()) {
    totalInitial += p;
  }
  EXPECT_DOUBLE_EQ(totalInitial, 1.0);
  EXPECT_LT(test::maxRowDeviation(result.quotient), 1e-12);
}

TEST(LumpEdge, AbsorbingSelfLoopsMergeByKeyAndStayAbsorbing) {
  // Two absorbing states sharing a key collapse into one absorbing block.
  const auto d = rawChain({{0, 0.5, 0.5}, {0, 1.0, 0}, {0, 0, 1.0}},
                          {1.0, 0, 0});
  const auto result = lump::lump(d, lump::InitialKeys(3, 0));
  // With no distinctions the whole stochastic chain collapses.
  EXPECT_EQ(result.partition.numBlocks, 1u);
  ASSERT_EQ(result.quotient.numStates(), 1u);
  // The single block must be exactly absorbing (self-loop mass 1), not
  // approximately: aggregation sums the representative row, no rounding.
  ASSERT_EQ(result.quotient.numTransitions(), 1u);
  EXPECT_DOUBLE_EQ(result.quotient.val()[0], 1.0);
  EXPECT_DOUBLE_EQ(result.quotient.initialDistribution()[0], 1.0);

  // Keyed apart, the two absorbing states stay separate self-loops.
  lump::InitialKeys keys(3, 0);
  keys[1] = 1;
  keys[2] = 2;
  const auto keyed = lump::lump(d, keys);
  EXPECT_EQ(keyed.partition.numBlocks, 3u);
  EXPECT_TRUE(lump::verifyLumpable(d, keyed.partition).lumpable);
}

TEST(LumpEdge, ProbResolutionBucketsNearTies) {
  // States 1 and 2 differ in transition probability by `gap`: 1e-14 lies
  // far below the 1e-12 bucketing, so they merge; 1e-9 lies far above it,
  // so they split.
  const auto chainWithGap = [](double gap) {
    return rawChain({{0, 0.5, 0.5, 0, 0},
                     {0, 0, 0, 0.3, 0.7},
                     {0, 0, 0, 0.3 + gap, 0.7 - gap},
                     {0, 0, 0, 1.0, 0},
                     {0, 0, 0, 0, 1.0}},
                    {1.0, 0, 0, 0, 0});
  };
  lump::InitialKeys keys(5, 0);
  keys[3] = 1;
  keys[4] = 2;

  const auto merged = lump::lump(chainWithGap(1e-14), keys);
  EXPECT_EQ(merged.partition.numBlocks, 4u);
  EXPECT_EQ(merged.partition.blockOf[1], merged.partition.blockOf[2]);

  const auto split = lump::lump(chainWithGap(1e-9), keys);
  EXPECT_EQ(split.partition.numBlocks, 5u);
  EXPECT_NE(split.partition.blockOf[1], split.partition.blockOf[2]);
}

TEST(LumpEdge, KeysFromMasksAndRewardsMatchesManualPartition) {
  const auto model = test::randomModel(40, 3, 77);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto reward = d.evalReward(model, "");
  la::BitVector mask(d.numStates());
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (s % 3 == 0) mask.set(s);
  }
  const auto keys = lump::keysFromMasksAndRewards(
      d.numStates(), {&mask}, {&reward});
  // States sharing a key must agree on the mask bit and the reward.
  for (std::uint32_t a = 0; a < d.numStates(); ++a) {
    for (std::uint32_t b = a + 1; b < d.numStates(); ++b) {
      if (keys[a] == keys[b]) {
        EXPECT_EQ(mask.get(a), mask.get(b));
        EXPECT_EQ(reward[a], reward[b]);
      }
    }
  }
  // No needs at all -> one shared key (nothing blocks merging).
  const auto empty = lump::keysFromMasksAndRewards(d.numStates(), {}, {});
  for (const std::uint64_t k : empty) EXPECT_EQ(k, empty[0]);
}

TEST(LumpEdge, QuotientByteIdenticalAcrossConcurrentThreads) {
  // The engine's reduce stage may run the refinement from any pool thread
  // with siblings refining concurrently. Block maps and quotient arrays
  // must come out byte-identical regardless.
  const auto model = test::randomModel(60, 3, 5);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto reward = d.evalReward(model, "");
  const auto keys =
      lump::keysFromMasksAndRewards(d.numStates(), {}, {&reward});
  const auto reference = lump::lump(d, keys);

  for (const int threads : {1, 2, 8}) {
    std::vector<lump::LumpResult> results(threads);
    {
      // lint:allow(raw-thread: determinism test drives lump from client threads)
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back(
            [&, t] { results[t] = lump::lump(d, keys); });
      }
      for (auto& th : pool) th.join();
    }
    for (const auto& result : results) {
      EXPECT_EQ(result.partition.blockOf, reference.partition.blockOf)
          << threads << " threads";
      EXPECT_EQ(result.representative, reference.representative);
      EXPECT_EQ(result.quotient.col(), reference.quotient.col());
      EXPECT_EQ(result.quotient.val(), reference.quotient.val());
    }
  }
}

TEST(LumpEdge, SignaturesOnThePoolAreBitwiseSequential) {
  // Both matrices pass the fan-out threshold (57,350 and 262,144 nonzeros,
  // several row blocks each), so every round's signatures run on the pool.
  const viterbi::ReducedViterbiModel viterbiModel(viterbi::ViterbiParams{});
  const test::SymmetricBanksModel banks(9, 0.3, 0.2);
  for (const dtmc::Model* model :
       std::vector<const dtmc::Model*>{&viterbiModel, &banks}) {
    const auto d = dtmc::buildExplicit(*model).dtmc;
    ASSERT_GT(d.matrix().blockCount(), 1u);
    const auto reward = d.evalReward(*model, "");
    const la::BitVector mask = d.evalAtom(*model, "error");
    const auto keys =
        lump::keysFromMasksAndRewards(d.numStates(), {&mask}, {&reward});
    const lump::LumpResult sequential = lump::lump(d, keys);
    EXPECT_LT(sequential.partition.numBlocks, d.numStates());
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      engine::ThreadPool pool(threads);
      const lump::LumpResult got =
          lump::lump(d, keys, engine::laRunnerFor(pool));
      EXPECT_EQ(got.partition.blockOf, sequential.partition.blockOf);
      EXPECT_EQ(got.partition.numBlocks, sequential.partition.numBlocks);
      EXPECT_EQ(got.representative, sequential.representative);
      EXPECT_EQ(got.refinementRounds, sequential.refinementRounds);
      EXPECT_EQ(got.quotient.rowPtr(), sequential.quotient.rowPtr());
      EXPECT_EQ(got.quotient.col(), sequential.quotient.col());
      EXPECT_EQ(got.quotient.val(), sequential.quotient.val());
      EXPECT_EQ(got.quotient.initialDistribution(),
                sequential.quotient.initialDistribution());
      EXPECT_TRUE(
          test::sameStateTables(got.quotient, sequential.quotient));
    }
  }
}

}  // namespace
}  // namespace mimostat
