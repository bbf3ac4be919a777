#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "legacy_loops.hpp"
#include "lump/symmetry.hpp"
#include "mimo/model.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

lump::BlockStructure singletonBlocks(int k) {
  lump::BlockStructure blocks;
  for (int i = 0; i < k; ++i) blocks.push_back({static_cast<std::size_t>(i)});
  return blocks;
}

TEST(Symmetry, CanonicalizeSortsBlocks) {
  const test::SymmetricBanksModel model(3, 0.2, 0.3);
  const lump::SymmetryReducedModel reduced(model, singletonBlocks(3));
  EXPECT_EQ(reduced.canonicalize({1, 0, 1}), (dtmc::State{0, 1, 1}));
  EXPECT_EQ(reduced.canonicalize({0, 0, 0}), (dtmc::State{0, 0, 0}));
}

TEST(Symmetry, CanonicalizeIsIdempotentAndOrbitInvariant) {
  const test::SymmetricBanksModel model(4, 0.2, 0.3);
  const lump::SymmetryReducedModel reduced(model, singletonBlocks(4));
  const dtmc::State s{1, 0, 1, 0};
  const auto c = reduced.canonicalize(s);
  EXPECT_EQ(reduced.canonicalize(c), c);
  // Every permutation of s maps to the same canonical state.
  EXPECT_EQ(reduced.canonicalize({0, 1, 0, 1}), c);
  EXPECT_EQ(reduced.canonicalize({1, 1, 0, 0}), c);
}

TEST(Symmetry, ReducedStateSpaceIsOrbitCount) {
  const int k = 5;
  const test::SymmetricBanksModel model(k, 0.2, 0.3);
  const auto full = dtmc::buildExplicit(model);
  EXPECT_EQ(full.dtmc.numStates(), 1u << k);

  const lump::SymmetryReducedModel reducedModel(model, singletonBlocks(k));
  const auto reduced = dtmc::buildExplicit(reducedModel);
  EXPECT_EQ(reduced.dtmc.numStates(), static_cast<std::uint32_t>(k + 1));
  EXPECT_LT(test::maxRowDeviation(reduced.dtmc), 1e-12);
}

TEST(Symmetry, QuotientPreservesSymmetricRewards) {
  const int k = 4;
  const test::SymmetricBanksModel model(k, 0.15, 0.25);
  const auto full = dtmc::buildExplicit(model);
  const lump::SymmetryReducedModel reducedModel(model, singletonBlocks(k));
  const auto reduced = dtmc::buildExplicit(reducedModel);

  const auto fullReward = full.dtmc.evalReward(model, "");
  const auto reducedReward = reduced.dtmc.evalReward(reducedModel, "");
  for (const std::uint64_t t : {1ULL, 3ULL, 10ULL, 40ULL}) {
    EXPECT_NEAR(test::legacyInstantaneous(full.dtmc, fullReward, t),
                test::legacyInstantaneous(reduced.dtmc, reducedReward, t),
                1e-11)
        << "t=" << t;
  }
}

TEST(Symmetry, VerifySymmetryAcceptsSymmetricModel) {
  const test::SymmetricBanksModel model(4, 0.3, 0.2);
  const lump::SymmetryReducedModel reduced(model, singletonBlocks(4));
  EXPECT_TRUE(reduced.verifySymmetry({"any"}, 200, 7));
  // A single block has no second block to swap with.
  const lump::SymmetryReducedModel single(model, {{0, 1, 2, 3}});
  EXPECT_TRUE(single.verifySymmetry({"any"}, 200, 7));
}

/// A deliberately asymmetric variant: component 0 uses different flip
/// probabilities, so treating the components as symmetric is unsound.
class AsymmetricBanksModel : public test::SymmetricBanksModel {
 public:
  AsymmetricBanksModel() : SymmetricBanksModel(3, 0.3, 0.2) {}
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    std::vector<dtmc::PackedTransition>& row = out.entries();
    const std::size_t begin = row.size();
    SymmetricBanksModel::transitions(s, out);
    // Skew: make the all-flip branch depend on component 0 asymmetrically.
    for (std::size_t i = begin; i < row.size(); ++i) {
      if (s[0] == 1 && layout_.field(row[i].target, 0) == 0) {
        row[i].prob *= 0.5;
      }
    }
    // Renormalize so rows still sum to 1 (keeps the model well-formed but
    // breaks exchangeability).
    double total = 0.0;
    for (std::size_t i = begin; i < row.size(); ++i) total += row[i].prob;
    for (std::size_t i = begin; i < row.size(); ++i) row[i].prob /= total;
  }

 private:
  const dtmc::VarLayout layout_ = layout();
};

TEST(Symmetry, VerifySymmetryRejectsAsymmetricModel) {
  const AsymmetricBanksModel model;
  const lump::SymmetryReducedModel reduced(model, singletonBlocks(3));
  EXPECT_FALSE(reduced.verifySymmetry({"any"}, 500, 11));
}

/// SymmetryReducedModel::canonicalize as it was on State vectors, verbatim
/// (the wrapper's blocks_ as a parameter).
dtmc::State verbatimCanonicalize(const lump::BlockStructure& blocks_,
                                 const dtmc::State& s) {
  // Extract block tuples, sort lexicographically, write back.
  const std::size_t arity = blocks_.front().size();
  std::vector<std::vector<std::int32_t>> tuples(blocks_.size());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    tuples[b].resize(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      tuples[b][i] = s[blocks_[b][i]];
    }
  }
  std::sort(tuples.begin(), tuples.end());
  dtmc::State canonical(s);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    for (std::size_t i = 0; i < arity; ++i) {
      canonical[blocks_[b][i]] = tuples[b][i];
    }
  }
  return canonical;
}

/// For every reachable state of `model` and every permutation of `blocks`,
/// the permuted state's canonical key is the verbatim canonical state's
/// key and equals the unpermuted state's. Up to 6 blocks every permutation
/// is applied. Beyond, the adjacent block swaps, which generate every
/// permutation, are applied, and each swapped state must be reachable
/// again: the reachable set is then closed under every permutation, and a
/// key unchanged by each generator on it is unchanged by their products.
/// Returns the states checked.
std::size_t expectCanonicalKeys(const dtmc::Model& model,
                                const lump::BlockStructure& blocks) {
  const lump::SymmetryReducedModel reduced(model, blocks);
  const dtmc::VarLayout layout = model.layout();
  const dtmc::Exploration full = dtmc::explore(model);
  EXPECT_TRUE(full.exact);
  std::vector<std::vector<std::size_t>> perms;
  std::vector<std::size_t> perm(blocks.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  const bool everyPermutation = blocks.size() <= 6;
  if (everyPermutation) {
    do {
      perms.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  } else {
    for (std::size_t b = 0; b + 1 < blocks.size(); ++b) {
      perms.push_back(perm);
      std::swap(perms.back()[b], perms.back()[b + 1]);
    }
  }
  std::vector<std::uint64_t> reachable = full.raw.keys;
  std::sort(reachable.begin(), reachable.end());
  dtmc::State permuted;
  for (const std::uint64_t key : full.raw.keys) {
    const dtmc::State s = layout.unpack(key);
    const std::uint64_t canonical = reduced.canonicalKey(key);
    EXPECT_EQ(reduced.canonicalize(s), layout.unpack(canonical));
    for (const std::vector<std::size_t>& p : perms) {
      permuted = s;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        for (std::size_t i = 0; i < blocks[b].size(); ++i) {
          permuted[blocks[b][i]] = s[blocks[p[b]][i]];
        }
      }
      const std::uint64_t permutedKey = layout.pack(permuted);
      const std::uint64_t got = reduced.canonicalKey(permutedKey);
      if (got != layout.pack(verbatimCanonicalize(blocks, permuted)) ||
          got != canonical ||
          (!everyPermutation && !std::binary_search(reachable.begin(),
                                                    reachable.end(),
                                                    permutedKey))) {
        ADD_FAILURE() << "state key " << key;
        return 0;
      }
    }
  }
  return full.raw.keys.size();
}

TEST(Symmetry, CanonicalKeysMatchTheVerbatimCanonicalizeExhaustively) {
  for (const int nr : {2, 4}) {
    SCOPED_TRACE("MIMO 1x" + std::to_string(nr));
    mimo::MimoParams params;  // test-sized
    params.nr = nr;
    params.snrDb = 6.0;
    params.hLevels = 2;
    params.hRange = 1.2;
    params.yLevels = nr > 2 ? 2 : 3;
    params.yRange = 1.8;
    const mimo::MimoDetectorModel model(params);
    EXPECT_GT(expectCanonicalKeys(model, model.symmetryBlocks()), 0u);
  }
  {
    SCOPED_TRACE("banks, singleton blocks");
    const test::SymmetricBanksModel model(5, 0.2, 0.3);
    EXPECT_EQ(expectCanonicalKeys(model, singletonBlocks(5)), 32u);
  }
  {
    SCOPED_TRACE("banks, pair blocks");
    const test::SymmetricBanksModel model(6, 0.2, 0.3);
    EXPECT_EQ(expectCanonicalKeys(model, {{0, 1}, {2, 3}, {4, 5}}), 64u);
  }
}

/// Malformed block structures throw in every build type (canonicalKey would
/// otherwise read and write out of bounds).
TEST(Symmetry, ConstructorRejectsMalformedBlocks) {
  const test::SymmetricBanksModel model(4, 0.2, 0.3);
  const auto rejects = [&](const lump::BlockStructure& blocks) {
    EXPECT_THROW(lump::SymmetryReducedModel(model, blocks),
                 std::invalid_argument);
  };
  rejects({});                    // no blocks
  rejects({{}, {}});              // empty blocks
  rejects({{0, 1}, {2}});         // unequal arity
  rejects({{0}, {7}});            // not a variable
  rejects({{0, 1}, {1, 2}});      // a variable in two blocks
  // More block variables than canonicalKey's stack arrays hold: 65
  // constant (0-bit) variables fit any layout.
  class ConstantsModel : public dtmc::Model {
   public:
    [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
      return std::vector<dtmc::VarSpec>(
          lump::SymmetryReducedModel::kMaxBlockVars + 1, {"c", 0, 0});
    }
    [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
      return {dtmc::State(lump::SymmetryReducedModel::kMaxBlockVars + 1, 0)};
    }
    void transitions(const dtmc::State& /*s*/,
                     dtmc::Successors& /*out*/) const override {}
  };
  const ConstantsModel constants;
  lump::BlockStructure many;
  for (std::size_t b = 0; b <= lump::SymmetryReducedModel::kMaxBlockVars;
       ++b) {
    many.push_back({b});
  }
  EXPECT_THROW(lump::SymmetryReducedModel(constants, many),
               std::invalid_argument);
  many.pop_back();
  EXPECT_NO_THROW(lump::SymmetryReducedModel(constants, many));
  EXPECT_NO_THROW(lump::SymmetryReducedModel(model, {{0, 1}, {2, 3}}));
}

TEST(Symmetry, MultiVariableBlocks) {
  // Blocks of arity 2 (pairs of variables) must sort as tuples. Build a
  // 2-block model by pairing the banks: {c0,c1} and {c2,c3}.
  const test::SymmetricBanksModel model(4, 0.2, 0.2);
  lump::BlockStructure pairBlocks{{0, 1}, {2, 3}};
  const lump::SymmetryReducedModel reduced(model, pairBlocks);
  EXPECT_EQ(reduced.canonicalize({1, 0, 0, 1}), (dtmc::State{0, 1, 1, 0}));
  const auto built = dtmc::buildExplicit(reduced);
  const auto full = dtmc::buildExplicit(model);
  EXPECT_LT(built.dtmc.numStates(), full.dtmc.numStates());
}

}  // namespace
}  // namespace mimostat
