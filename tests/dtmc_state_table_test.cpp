// ExplicitDtmc's state table: packed u64 keys, as dtmc::explore produced
// them. Every reader — state(), varValue(), evalAtom(), evalReward(), the
// PRISM export and a quotient's representatives — answers exactly as the
// model evaluated on the decoded states does, and fromRaw rejects a table
// whose length is not the row count.
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

/// The PRISM state file `d` writes.
std::string writtenSta(const dtmc::ExplicitDtmc& d) {
  std::ostringstream os;
  dtmc::writeSta(d, os);
  return os.str();
}

/// The PRISM state file of a table holding `keys`, from decoded states.
std::string staOf(const dtmc::VarLayout& layout,
                  const std::vector<std::uint64_t>& keys) {
  std::ostringstream os;
  os << '(';
  for (std::size_t v = 0; v < layout.numVars(); ++v) {
    os << (v == 0 ? "" : ",") << layout.vars()[v].name;
  }
  os << ")\n";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const dtmc::State s = layout.unpack(keys[i]);
    os << i << ":(";
    for (std::size_t v = 0; v < s.size(); ++v) {
      os << (v == 0 ? "" : ",") << s[v];
    }
    os << ")\n";
  }
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
  EXPECT_EQ(writtenSta(packed), staOf(layout, keys));

  // The quotient keeps its representatives' keys.
  const lump::InitialKeys initial =
      lump::keysFromMasksAndRewards(packed.numStates(), {&error}, {&reward});
  const lump::LumpResult fromPacked = lump::lump(packed, initial);
  ASSERT_LT(fromPacked.partition.numBlocks, packed.numStates());
  EXPECT_EQ(fromPacked.quotient.stateTableBytes(),
            fromPacked.partition.numBlocks * sizeof(std::uint64_t));
  std::vector<std::uint64_t> representatives;
  for (std::uint32_t b = 0; b < fromPacked.partition.numBlocks; ++b) {
    representatives.push_back(keys[fromPacked.representative[b]]);
    EXPECT_EQ(fromPacked.quotient.state(b),
              layout.unpack(representatives.back()))
        << "block " << b;
  }
  EXPECT_EQ(writtenSta(fromPacked.quotient), staOf(layout, representatives));
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

}  // namespace
}  // namespace mimostat
