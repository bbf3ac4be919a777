#include <gtest/gtest.h>

#include "dtmc/builder.hpp"
#include "legacy_loops.hpp"
#include "lump/symmetry.hpp"
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
  EXPECT_LT(reduced.dtmc.maxRowDeviation(), 1e-12);
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
}

/// A deliberately asymmetric variant: component 0 uses different flip
/// probabilities, so treating the components as symmetric is unsound.
class AsymmetricBanksModel : public test::SymmetricBanksModel {
 public:
  AsymmetricBanksModel() : SymmetricBanksModel(3, 0.3, 0.2) {}
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    dtmc::Successors symmetric;
    SymmetricBanksModel::transitions(s, symmetric);
    std::vector<dtmc::Transition>& row = symmetric.stateEntries();
    // Skew: make the all-flip branch depend on component 0 asymmetrically.
    for (auto& t : row) {
      if (s[0] == 1 && t.target[0] == 0) {
        t.prob *= 0.5;
      }
    }
    // Renormalize so rows still sum to 1 (keeps the model well-formed but
    // breaks exchangeability).
    double total = 0.0;
    for (const auto& t : row) total += t.prob;
    for (const auto& t : row) out.add(t.prob / total, t.target);
  }
};

TEST(Symmetry, VerifySymmetryRejectsAsymmetricModel) {
  const AsymmetricBanksModel model;
  const lump::SymmetryReducedModel reduced(model, singletonBlocks(3));
  EXPECT_FALSE(reduced.verifySymmetry({"any"}, 500, 11));
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
