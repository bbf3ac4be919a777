#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "dtmc/builder.hpp"
#include "dtmc/io.hpp"
#include "mc/checker.hpp"
#include "test_models.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

TEST(IoImport, TraRoundTrip) {
  auto model = test::randomModel(25, 3, 42);
  const auto original = dtmc::buildExplicit(model).dtmc;

  std::stringstream tra;
  dtmc::writeTra(original, tra);
  std::stringstream sta;
  dtmc::writeSta(original, sta);

  const auto imported = dtmc::readTra(tra, &sta, 0);
  ASSERT_EQ(imported.numStates(), original.numStates());
  ASSERT_EQ(imported.numTransitions(), original.numTransitions());
  for (std::uint32_t s = 0; s < original.numStates(); ++s) {
    ASSERT_EQ(imported.rowPtr()[s + 1], original.rowPtr()[s + 1]);
    ASSERT_EQ(imported.state(s), original.state(s));
  }
  for (std::uint64_t k = 0; k < original.numTransitions(); ++k) {
    ASSERT_EQ(imported.col()[k], original.col()[k]);
    ASSERT_NEAR(imported.val()[k], original.val()[k], 1e-9);
  }
}

TEST(IoImport, TraWithoutStaUsesIndexVariable) {
  const auto model = test::twoStateChain(0.3, 0.4);
  const auto original = dtmc::buildExplicit(model).dtmc;
  std::stringstream tra;
  dtmc::writeTra(original, tra);
  const auto imported = dtmc::readTra(tra, nullptr, 1);
  EXPECT_EQ(imported.varLayout().vars()[0].name, "s");
  EXPECT_EQ(imported.state(1), dtmc::State{1});
  EXPECT_NEAR(imported.initialDistribution()[1], 1.0, 1e-15);
}

TEST(IoImport, StaWiderThan64BitsThrows) {
  // Three variables over the full int32 range need 96 bits.
  std::stringstream tra("2 2\n0 1 1.0\n1 1 1.0\n");
  std::stringstream sta(
      "(a,b,c)\n"
      "0:(-2147483648,-2147483648,-2147483648)\n"
      "1:(2147483647,2147483647,2147483647)\n");
  try {
    (void)dtmc::readTra(tra, &sta, 0);
    FAIL() << "a 96-bit .sta was read";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("96 bits"), std::string::npos)
        << e.what();
  }
}

TEST(IoImport, MalformedInputsThrow) {
  {
    std::stringstream tra("garbage");
    EXPECT_THROW(dtmc::readTra(tra, nullptr), std::runtime_error);
  }
  {
    std::stringstream tra("2 1\n0 5 1.0\n");  // dst out of range
    EXPECT_THROW(dtmc::readTra(tra, nullptr), std::runtime_error);
  }
  {
    std::stringstream tra("2 2\n0 1 1.0\n");  // truncated
    EXPECT_THROW(dtmc::readTra(tra, nullptr), std::runtime_error);
  }
  {
    std::stringstream tra("2 1\n0 1 1.0\n");
    EXPECT_THROW(dtmc::readTra(tra, nullptr, 7), std::runtime_error);
  }
  {
    // A count no input can back is read until the list runs out, not
    // reserved up front.
    std::stringstream tra("2 1000000000000000000\n0 1 1.0\n");
    EXPECT_THROW(dtmc::readTra(tra, nullptr), std::runtime_error);
  }
  {
    // Row sums to 1, but the left-product kernels assume no negative entry.
    std::stringstream tra("2 3\n0 1 1.5\n0 0 -0.5\n1 1 1.0\n");
    EXPECT_THROW(dtmc::readTra(tra, nullptr), std::runtime_error);
  }
  {
    // A substochastic row names itself and its sum.
    std::stringstream tra("2 2\n0 1 0.5\n1 0 1.0\n");
    try {
      (void)dtmc::readTra(tra, nullptr);
      ADD_FAILURE() << "a row summing to 0.5 imported";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("row 0 sums to 0.5"),
                std::string::npos)
          << e.what();
    }
  }
  {
    // Rounding far inside the tolerance still imports.
    std::stringstream tra("2 3\n0 1 0.5\n0 0 0.499999999999\n1 0 1.0\n");
    EXPECT_NO_THROW((void)dtmc::readTra(tra, nullptr));
  }
  const auto readWithSta = [](const std::string& staText) {
    std::stringstream tra("2 2\n0 1 1.0\n1 0 1.0\n");
    std::stringstream sta(staText);
    return dtmc::readTra(tra, &sta);
  };
  // 2^32 must not wrap to state 0 and overwrite it.
  EXPECT_THROW(readWithSta("(x)\n0:(1)\n1:(2)\n4294967296:(7)\n"),
               std::runtime_error);
  // A value past int32 must not narrow (2^32 + 3 read back as 3).
  EXPECT_THROW(readWithSta("(x)\n0:(4294967299)\n1:(2)\n"), std::runtime_error);
  EXPECT_THROW(readWithSta("(x)\nzero:(1)\n1:(2)\n"), std::runtime_error);
  // Every state exactly once: an omitted state is not x = 0.
  EXPECT_THROW(readWithSta("(x)\n0:(1)\n"), std::runtime_error);
  EXPECT_THROW(readWithSta("(x)\n0:(1)\n0:(2)\n1:(2)\n"),
               std::runtime_error);
  const auto readLabText = [](const std::string& labText) {
    std::stringstream lab(labText);
    return dtmc::readLab(lab, 2);
  };
  // 2^32 + 1 must not label state 1.
  EXPECT_THROW(readLabText("0=\"init\"\n4294967297: 0\n"), std::runtime_error);
  EXPECT_THROW(readLabText("x=\"init\"\n0: 0\n"), std::runtime_error);
  // A bad token must not silently end the state's label list.
  EXPECT_THROW(readLabText("0=\"init\" 1=\"goal\"\n0: 0 x 1\n"),
               std::runtime_error);
}

TEST(IoImport, LabRoundTrip) {
  auto model = test::randomModel(20, 3, 7);
  const auto d = dtmc::buildExplicit(model).dtmc;
  std::stringstream lab;
  dtmc::writeLab(d, model, {"target"}, lab);
  const auto labels = dtmc::readLab(lab, d.numStates());
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0].first, "target");
  EXPECT_EQ(labels[0].second, d.evalAtom(model, "target"));
}

TEST(IoImport, SrewRoundTrip) {
  auto model = test::randomModel(20, 3, 8);
  const auto d = dtmc::buildExplicit(model).dtmc;
  std::stringstream srew;
  dtmc::writeSrew(d, model, "", srew);
  const auto rewards = dtmc::readSrew(srew, d.numStates());
  EXPECT_EQ(rewards, d.evalReward(model, ""));
}

TEST(IoImport, ImportedModelIsCheckable) {
  // Export a Viterbi model with its labels and rewards; re-import; the
  // checker must produce identical values on the imported model.
  viterbi::ViterbiParams params;
  params.tracebackLength = 3;
  const viterbi::ReducedViterbiModel model(params);
  const auto d = dtmc::buildExplicit(model).dtmc;

  std::stringstream tra;
  std::stringstream lab;
  std::stringstream srew;
  dtmc::writeTra(d, tra);
  dtmc::writeLab(d, model, {"error"}, lab);
  dtmc::writeSrew(d, model, "", srew);

  dtmc::ImportedExplicit imported;
  imported.dtmc = dtmc::readTra(tra, nullptr, 0);
  imported.labels = dtmc::readLab(lab, d.numStates());
  imported.rewards.emplace_back("", dtmc::readSrew(srew, d.numStates()));
  const dtmc::ImportedModel importedModel(std::move(imported));

  const auto rebuilt = dtmc::buildExplicit(importedModel).dtmc;
  const mc::Checker originalChecker(d, model);
  const mc::Checker importedChecker(rebuilt, importedModel);
  for (const auto* prop :
       {"R=? [ I=40 ]", "P=? [ G<=25 !\"error\" ]", "P=? [ F<=10 \"error\" ]"}) {
    EXPECT_NEAR(originalChecker.check(prop).value,
                importedChecker.check(prop).value, 1e-10)
        << prop;
  }
}

TEST(IoImport, ImportedModelAbsorbingOnMissingRows) {
  // A .tra with no outgoing transitions for state 1: imported model makes
  // it absorbing instead of producing a substochastic row.
  std::stringstream tra("2 1\n0 1 1.0\n");
  dtmc::ImportedExplicit imported;
  imported.dtmc = dtmc::readTra(tra, nullptr, 0);
  const dtmc::ImportedModel model(std::move(imported));
  const auto rebuilt = dtmc::buildExplicit(model).dtmc;
  EXPECT_LT(test::maxRowDeviation(rebuilt), 1e-15);
}

}  // namespace
}  // namespace mimostat
