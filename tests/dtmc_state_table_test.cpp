// ExplicitDtmc's state table in its two forms: packed u64 keys when the
// layout fits 64 bits (as dtmc::explore produced them), State vectors
// otherwise. Every reader — state(), varValue(), evalAtom(), evalReward(),
// the PRISM export and a quotient's representatives — answers exactly as
// the model evaluated on the decoded states does, and fromRaw rejects a
// table whose length is not the row count.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/io.hpp"
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

/// A 4-state cycle over c whose layout is 95 bits wide: three wide
/// variables follow c. Atom "even" = c is even; reward = c.
class WideModel : public dtmc::Model {
 public:
  static constexpr std::int32_t kWide = 1'000'000'000;

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"c", 0, 3}, {"a", -kWide, kWide}, {"b", -kWide, kWide},
            {"d", -kWide, kWide}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {at(0)};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    out.add(0.5, at(s[0]));
    out.add(0.5, at((s[0] + 1) % 4));
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    return name == "even" && s[0] % 2 == 0;
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view /*name*/) const override {
    return s[0];
  }

 private:
  static dtmc::State at(std::int32_t c) {
    return {c, c * 7 - 900'000'000, 900'000'000 - c * 11, kWide - c};
  }
};

/// PRISM export of `d`: .tra, .sta, .lab (over `labels`) and .srew.
std::string exportAll(const dtmc::ExplicitDtmc& d, const dtmc::Model& model,
                      const std::vector<std::string>& labels) {
  std::ostringstream os;
  dtmc::writeTra(d, os);
  dtmc::writeSta(d, os);
  dtmc::writeLab(d, model, labels, os);
  dtmc::writeSrew(d, model, "", os);
  return os.str();
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
    raw.states = {{0}, {1}, {2}};
    EXPECT_EQ(dtmc::ExplicitDtmc::fromRaw(std::move(raw)).state(2),
              dtmc::State{2});
  }
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
  rejects([](auto& raw) { raw.states = {{0}, {1}}; });     // short
  rejects([](auto& raw) { raw.keys = {0, 1}; });           // short
  rejects([](auto& raw) { raw.keys = {0, 1, 2, 0}; });     // long
  rejects([](auto& raw) { raw.states.clear(); });          // missing
  rejects([](auto& raw) {                                  // both forms
    raw.keys = {0, 1, 2};
    raw.states = {{0}, {1}, {2}};
  });
  rejects([](auto& raw) {                                  // wide layout
    raw.keys = {0, 1, 2};
    raw.layout = WideModel().layout();
  });
  rejects([](auto& raw) {                                  // initial
    raw.states = {{0}, {1}, {2}};
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
  ASSERT_TRUE(layout.fitsInU64());
  const std::vector<std::uint64_t> keys = explored.raw.keys;
  ASSERT_EQ(keys.size(), explored.states);
  EXPECT_TRUE(explored.raw.states.empty());

  // The same chain with the State table a build made before packing.
  dtmc::ExplicitDtmc::Raw unpackedRaw = explored.raw;
  unpackedRaw.keys.clear();
  for (const std::uint64_t key : keys) {
    unpackedRaw.states.push_back(layout.unpack(key));
  }
  const dtmc::ExplicitDtmc unpacked =
      dtmc::ExplicitDtmc::fromRaw(std::move(unpackedRaw));
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
  EXPECT_EQ(unpacked.evalAtom(model, "error"), error);
  EXPECT_EQ(unpacked.evalReward(model, ""), reward);
  EXPECT_EQ(exportAll(packed, model, {"error"}),
            exportAll(unpacked, model, {"error"}));

  // The quotient keeps its representatives' keys.
  const lump::InitialKeys initial =
      lump::keysFromMasksAndRewards(packed.numStates(), {&error}, {&reward});
  const lump::LumpResult fromPacked = lump::lump(packed, initial);
  const lump::LumpResult fromUnpacked = lump::lump(unpacked, initial);
  ASSERT_LT(fromPacked.partition.numBlocks, packed.numStates());
  EXPECT_EQ(fromPacked.representative, fromUnpacked.representative);
  EXPECT_EQ(fromPacked.quotient.stateTableBytes(),
            fromPacked.partition.numBlocks * sizeof(std::uint64_t));
  for (std::uint32_t b = 0; b < fromPacked.partition.numBlocks; ++b) {
    EXPECT_EQ(fromPacked.quotient.state(b),
              layout.unpack(keys[fromPacked.representative[b]]))
        << "block " << b;
  }
  EXPECT_TRUE(test::sameStateTables(fromPacked.quotient,
                                    fromUnpacked.quotient));
  EXPECT_EQ(exportAll(fromPacked.quotient, model, {"error"}),
            exportAll(fromUnpacked.quotient, model, {"error"}));
}

TEST(StateTable, WideLayoutKeepsStateVectors) {
  const WideModel model;
  const dtmc::VarLayout layout = model.layout();
  ASSERT_FALSE(layout.fitsInU64());
  dtmc::Exploration explored = dtmc::explore(model);
  EXPECT_TRUE(explored.raw.keys.empty());
  const std::vector<dtmc::State> states = explored.raw.states;
  ASSERT_EQ(states.size(), 4u);
  const dtmc::ExplicitDtmc d =
      dtmc::buildFromExploration(std::move(explored), {}).dtmc;
  EXPECT_EQ(d.stateTableBytes(),
            4 * (sizeof(dtmc::State) + 4 * sizeof(std::int32_t)));

  la::BitVector even(d.numStates());
  std::vector<double> reward(d.numStates());
  for (std::uint32_t i = 0; i < d.numStates(); ++i) {
    EXPECT_EQ(d.state(i), states[i]);
    for (std::size_t v = 0; v < layout.numVars(); ++v) {
      EXPECT_EQ(d.varValue(i, v), states[i][v]);
    }
    if (model.atom(states[i], "even")) even.set(i);
    reward[i] = model.stateReward(states[i], "");
  }
  EXPECT_EQ(d.evalAtom(model, "even"), even);
  EXPECT_EQ(d.evalReward(model, ""), reward);

  // Seeded by "even" alone, c = 0, 2 and c = 1, 3 lump.
  const lump::LumpResult lumped = lump::lump(
      d, lump::keysFromMasksAndRewards(d.numStates(), {&even}, {}));
  ASSERT_EQ(lumped.partition.numBlocks, 2u);
  for (std::uint32_t b = 0; b < 2; ++b) {
    EXPECT_EQ(lumped.quotient.state(b), states[lumped.representative[b]]);
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
  ASSERT_TRUE(layout.fitsInU64());
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

}  // namespace
}  // namespace mimostat
