// ExplicitDtmc's state table: packed u64 keys, as dtmc::explore produced
// them. Every reader — state(), varValue(), evalAtom(), evalReward() and a
// quotient's representatives — answers exactly as the model evaluated on
// the decoded states does, and fromRaw rejects a table whose length is not
// the row count. evalAtom, evalReward and the lumping keys answer bit for
// bit the same on 1/2/8-thread pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/thread_pool.hpp"
#include "la/exec.hpp"
#include "lump/bisim.hpp"
#include "mimo/model.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

/// MIMO 1x2, small enough to explore in a unit test (its layout fits 64
/// bits).
mimo::MimoParams smallMimo1x2() {
  mimo::MimoParams p;
  p.nr = 2;
  p.snrDb = 6.0;
  p.hLevels = 2;
  p.hRange = 1.2;
  p.yLevels = 3;
  p.yRange = 1.8;
  return p;
}

/// A three-row chain over s in [0, 2], its state table left empty.
dtmc::ExplicitDtmc::Raw threeRows() {
  dtmc::ExplicitDtmc::Raw raw;
  raw.rowPtr = {0, 1, 2, 3};
  raw.col = {1, 2, 2};
  raw.val = {1.0, 1.0, 1.0};
  raw.initial = {1.0, 0.0, 0.0};
  raw.layout = dtmc::VarLayout({{"s", 0, 2}});
  return raw;
}

TEST(StateTable, FromRawRejectsTablesOfTheWrongLength) {
  {
    dtmc::ExplicitDtmc::Raw raw = threeRows();
    raw.keys = {0, 1, 2};
    const dtmc::ExplicitDtmc d = dtmc::ExplicitDtmc::fromRaw(std::move(raw));
    EXPECT_EQ(d.state(2), dtmc::State{2});
    EXPECT_EQ(d.varValue(1, 0), 1);
  }
  const auto rejects = [](auto mutate) {
    dtmc::ExplicitDtmc::Raw raw = threeRows();
    mutate(raw);
    EXPECT_THROW((void)dtmc::ExplicitDtmc::fromRaw(std::move(raw)),
                 std::invalid_argument);
  };
  rejects([](auto& raw) { raw.keys = {0, 1}; });           // short
  rejects([](auto& raw) { raw.keys = {0, 1, 2, 0}; });     // long
  rejects([](auto& raw) { raw.keys.clear(); });            // missing
  rejects([](auto& raw) {                                  // initial
    raw.keys = {0, 1, 2};
    raw.initial.pop_back();
  });
  rejects([](auto& raw) {                                  // no rows at all
    raw.rowPtr.clear();
    raw.initial.clear();
  });
}

TEST(StateTable, PackedTableMatchesTheDecodedStates) {
  const mimo::MimoDetectorModel model(smallMimo1x2());
  dtmc::Exploration explored = dtmc::explore(model);
  const dtmc::VarLayout layout = model.layout();
  const std::vector<std::uint64_t> keys = explored.raw.keys;
  ASSERT_EQ(keys.size(), explored.states);

  const dtmc::ExplicitDtmc packed =
      dtmc::buildFromExploration(std::move(explored), {}).dtmc;
  ASSERT_EQ(packed.numStates(), keys.size());
  EXPECT_EQ(packed.stateTableBytes(), keys.size() * sizeof(std::uint64_t));

  la::BitVector error(packed.numStates());
  std::vector<double> reward(packed.numStates());
  for (std::uint32_t i = 0; i < packed.numStates(); ++i) {
    const dtmc::State s = layout.unpack(keys[i]);
    ASSERT_EQ(packed.state(i), s) << "state " << i;
    for (std::size_t v = 0; v < layout.numVars(); ++v) {
      ASSERT_EQ(packed.varValue(i, v), s[v]) << "state " << i << " var " << v;
    }
    if (model.atom(s, "error")) error.set(i);
    reward[i] = model.stateReward(s, "");
  }
  EXPECT_EQ(packed.evalAtom(model, "error"), error);
  EXPECT_EQ(packed.evalReward(model, ""), reward);

  // The quotient keeps its representatives' keys.
  const lump::InitialKeys initial =
      lump::keysFromMasksAndRewards(packed.numStates(), {&error}, {&reward});
  const lump::LumpResult fromPacked = lump::lump(packed, initial);
  ASSERT_LT(fromPacked.partition.numBlocks, packed.numStates());
  EXPECT_EQ(fromPacked.quotient.stateTableBytes(),
            fromPacked.partition.numBlocks * sizeof(std::uint64_t));
  for (std::uint32_t b = 0; b < fromPacked.partition.numBlocks; ++b) {
    EXPECT_EQ(fromPacked.quotient.state(b),
              layout.unpack(keys[fromPacked.representative[b]]))
        << "block " << b;
  }
}

TEST(VarLayout, RoundTripsAtExactly64BitsAndWithZeroBitFields) {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  // Two 32-bit fields fill the word; 0-bit fields sit before, between and
  // after them.
  const dtmc::VarLayout layout({{"z0", 5, 5},
                                {"hi", kMin, kMax},
                                {"z1", -3, -3},
                                {"lo", kMin, kMax},
                                {"z2", 0, 0}});
  ASSERT_EQ(layout.totalBits(), 64);
  const std::vector<dtmc::State> states{
      {5, kMin, -3, kMin, 0}, {5, kMax, -3, kMax, 0}, {5, -1, -3, 0, 0},
      {5, 0, -3, -1, 0},      {5, kMin, -3, kMax, 0}, {5, 123, -3, -456, 0}};
  for (const dtmc::State& s : states) {
    const std::uint64_t key = layout.pack(s);
    EXPECT_EQ(layout.unpack(key), s);
    dtmc::State scratch{9, 9};
    layout.unpackInto(key, scratch);
    EXPECT_EQ(scratch, s);
    for (std::size_t v = 0; v < s.size(); ++v) {
      EXPECT_EQ(layout.field(key, v), s[v]) << "var " << v;
    }
    for (const dtmc::State& t : states) {
      EXPECT_EQ(key < layout.pack(t), s < t);  // packing keeps State's order
    }
  }
  EXPECT_EQ(layout.pack({5, kMax, -3, kMax, 0}), ~std::uint64_t{0});

  // A layout of 0-bit fields only packs every state to 0.
  const dtmc::VarLayout constant({{"a", 7, 7}, {"b", -1, -1}});
  EXPECT_EQ(constant.totalBits(), 0);
  EXPECT_EQ(constant.pack({7, -1}), 0u);
  EXPECT_EQ(constant.unpack(0), (dtmc::State{7, -1}));
  EXPECT_EQ(constant.field(0, 1), -1);
}

// ------------------------------------------- atoms, rewards and keys on a pool

/// One variable s over [0, n]; atom "third" holds on every third state,
/// the default reward is s / 4, and atom "boom" throws naming its state on
/// states 20007 and 30007.
class CountingModel : public dtmc::Model {
 public:
  explicit CountingModel(std::uint32_t n) : n_(static_cast<int>(n)) {}
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"s", 0, n_}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{0}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    out.add(1.0, {n_ == 0 ? 0 : (s[0] + 1) % n_});
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    if (name == "boom" && (s[0] == 20007 || s[0] == 30007)) {
      throw std::runtime_error("state " + std::to_string(s[0]));
    }
    return name == "third" && s[0] % 3 == 0;
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view) const override {
    return s[0] / 4.0;
  }

 private:
  int n_;
};

/// The n-state cycle of CountingModel as a raw table (n = 0 included).
dtmc::ExplicitDtmc countingChain(std::uint32_t n) {
  const CountingModel model(n);
  dtmc::ExplicitDtmc::Raw raw;
  raw.layout = model.layout();
  raw.rowPtr.push_back(0);
  for (std::uint32_t i = 0; i < n; ++i) {
    raw.col.push_back((i + 1) % n);
    raw.val.push_back(1.0);
    raw.rowPtr.push_back(raw.col.size());
    raw.initial.push_back(i == 0 ? 1.0 : 0.0);
    raw.keys.push_back(raw.layout.pack({static_cast<std::int32_t>(i)}));
  }
  return dtmc::ExplicitDtmc::fromRaw(std::move(raw));
}

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// evalAtom, evalReward and keysFromMasksAndRewards on 1/2/8-thread pools
/// equal the sequential results bit for bit.
void expectPooledEqualsSequential(const dtmc::ExplicitDtmc& d,
                                  const dtmc::Model& model,
                                  std::string_view atom) {
  const la::BitVector truth = d.evalAtom(model, atom);
  const std::vector<double> reward = d.evalReward(model, "");
  const lump::InitialKeys keys =
      lump::keysFromMasksAndRewards(d.numStates(), {&truth}, {&reward});
  for (const std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    engine::ThreadPool pool(threads);
    const la::TaskRunner runner = engine::laRunnerFor(pool);
    EXPECT_EQ(d.evalAtom(model, atom, runner), truth);
    EXPECT_TRUE(bitEqual(d.evalReward(model, "", runner), reward));
    EXPECT_EQ(lump::keysFromMasksAndRewards(d.numStates(), {&truth},
                                            {&reward}, runner),
              keys);
  }
}

TEST(PooledEvaluation, EqualsSequentialAtRangeAndThresholdEdges) {
  const auto threshold =
      static_cast<std::uint32_t>(la::Exec::kDefaultParallelThresholdNnz);
  for (const std::uint32_t n :
       {0u, 1u, 63u, 64u, 65u, threshold - 1, threshold, threshold + 1}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const dtmc::ExplicitDtmc d = countingChain(n);
    const CountingModel model(n);
    const la::BitVector third = d.evalAtom(model, "third");
    const std::vector<double> reward = d.evalReward(model, "");
    ASSERT_EQ(third.size(), n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(third.get(i), i % 3 == 0) << "state " << i;
      ASSERT_EQ(reward[i], i / 4.0) << "state " << i;
    }
    expectPooledEqualsSequential(d, model, "third");
  }
}

TEST(PooledEvaluation, MimoChainsEqualSequential) {
  for (const mimo::MimoParams& params :
       {smallMimo1x2(), mimo::mimo1x2Params()}) {
    const mimo::MimoDetectorModel model(params);
    const dtmc::ExplicitDtmc d = dtmc::buildExplicit(model).dtmc;
    SCOPED_TRACE(std::to_string(d.numStates()) + " states");
    expectPooledEqualsSequential(d, model, "error");
  }
}

TEST(PooledEvaluation, ErrorIsTheLowestFailingStates) {
  // Two failing states in different ranges: every pool reports the one a
  // sequential pass meets first.
  const dtmc::ExplicitDtmc d = countingChain(40000);
  const CountingModel model(40000);
  for (const std::size_t threads : {0, 1, 2, 8}) {
    engine::ThreadPool pool(std::max<std::size_t>(threads, 1));
    const la::TaskRunner runner =
        threads == 0 ? la::TaskRunner{} : engine::laRunnerFor(pool);
    try {
      (void)d.evalAtom(model, "boom", runner);
      ADD_FAILURE() << "no error at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "state 20007") << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace mimostat
