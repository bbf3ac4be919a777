// pctl:: evaluation-plan tests: structural hashing/equality, normalization
// (double negation, trivially-true phi), subformula and column dedup, plan
// stats arithmetic, and which group each property kind lands in.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pctl/hash.hpp"
#include "pctl/parser.hpp"
#include "pctl/plan.hpp"

namespace mimostat {
namespace {

pctl::Property parse(const std::string& text) {
  return pctl::parseProperty(text);
}

std::vector<pctl::Property> parseAll(const std::vector<std::string>& texts) {
  std::vector<pctl::Property> properties;
  for (const auto& t : texts) properties.push_back(parse(t));
  return properties;
}

TEST(PctlHash, StructurallyEqualFormulasShareAHash) {
  // Distinct parses of the same text are distinct AST objects.
  const auto a = parse("P=? [ F<=5 \"target\" ]");
  const auto b = parse("P=? [ F<=5 \"target\" ]");
  EXPECT_TRUE(pctl::structuralEqual(a, b));
  EXPECT_EQ(pctl::structuralHash(a), pctl::structuralHash(b));
}

TEST(PctlHash, DistinguishesStructure) {
  const auto base = parse("P=? [ \"a\" U<=3 \"b\" ]");
  for (const char* other : {
           "P=? [ \"b\" U<=3 \"a\" ]",   // operand order
           "P=? [ \"a\" U<=4 \"b\" ]",   // bound
           "P=? [ \"a\" U \"b\" ]",      // bounded vs unbounded
           "P=? [ F<=3 \"b\" ]",         // operator
           "P>=0.5 [ \"a\" U<=3 \"b\" ]",  // query vs bound
       }) {
    EXPECT_FALSE(pctl::structuralEqual(base, parse(other))) << other;
    EXPECT_NE(pctl::structuralHash(base), pctl::structuralHash(parse(other)))
        << other;
  }
}

TEST(PctlHash, VarCmpIdentity) {
  const auto a = parse("P=? [ F<=2 errs>1 ]");
  const auto b = parse("P=? [ F<=2 errs>1 ]");
  const auto c = parse("P=? [ F<=2 errs>2 ]");
  EXPECT_TRUE(pctl::structuralEqual(a, b));
  EXPECT_FALSE(pctl::structuralEqual(a, c));
}

TEST(PctlHash, NegatedFoldsDoubleNegation) {
  const auto atom = pctl::StateFormula::makeAtom("flag");
  const auto once = pctl::negated(atom);
  EXPECT_EQ(once->kind, pctl::StateFormula::Kind::kNot);
  // !!flag collapses back to the original node (shared, not copied).
  EXPECT_EQ(pctl::negated(once).get(), atom.get());
  EXPECT_EQ(pctl::negated(pctl::StateFormula::makeTrue())->kind,
            pctl::StateFormula::Kind::kFalse);
  EXPECT_EQ(pctl::negated(pctl::StateFormula::makeFalse())->kind,
            pctl::StateFormula::Kind::kTrue);
}

TEST(PctlHash, TriviallyTrue) {
  EXPECT_TRUE(pctl::isTriviallyTrue(*pctl::StateFormula::makeTrue()));
  EXPECT_TRUE(pctl::isTriviallyTrue(
      *pctl::StateFormula::makeNot(pctl::StateFormula::makeFalse())));
  EXPECT_FALSE(pctl::isTriviallyTrue(*pctl::StateFormula::makeAtom("a")));
}

TEST(EvalPlan, SharedBodyAtTwoThresholdsSharesOneColumn) {
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ F<=5 \"target\" ]",
      "P=? [ F<=9 \"target\" ]",
  }));
  ASSERT_EQ(plan.masks.size(), 1u);
  ASSERT_EQ(plan.columns.size(), 1u);
  EXPECT_EQ(plan.columns[0].steps, 9u);
  ASSERT_EQ(plan.bounded.size(), 2u);
  EXPECT_EQ(plan.bounded[0].column, plan.bounded[1].column);
  EXPECT_EQ(plan.boundedSteps(), 9u);
  // Per-formula: 5 + 9 traversal steps; shared: 9.
  EXPECT_EQ(plan.stats.traversalsSaved, 5u);
  EXPECT_GE(plan.stats.tasksDeduped, 2u);  // shared mask + shared column
}

TEST(EvalPlan, GloballySharesTheComplementColumn) {
  // G<=7 !flag normalizes to 1 - F<=7 flag: same mask, same column as the
  // plain finally, read complemented.
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ F<=9 \"flag\" ]",
      "P=? [ G<=7 !\"flag\" ]",
  }));
  ASSERT_EQ(plan.masks.size(), 1u);
  ASSERT_EQ(plan.columns.size(), 1u);
  ASSERT_EQ(plan.bounded.size(), 2u);
  EXPECT_FALSE(plan.bounded[0].complement);
  EXPECT_TRUE(plan.bounded[1].complement);
  EXPECT_EQ(plan.bounded[0].column, plan.bounded[1].column);
  EXPECT_EQ(plan.stats.traversalsSaved, 7u);
}

TEST(EvalPlan, TrueUntilIsFinally) {
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ true U<=6 \"b\" ]",
      "P=? [ F<=6 \"b\" ]",
  }));
  EXPECT_EQ(plan.columns.size(), 1u);
  EXPECT_EQ(plan.masks.size(), 1u);
}

TEST(EvalPlan, UntilKeepsItsPhiMask) {
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ \"a\" U<=6 \"b\" ]",
      "P=? [ F<=6 \"b\" ]",
  }));
  // Different phi constraint -> different columns, but the shared psi mask
  // is evaluated once.
  EXPECT_EQ(plan.columns.size(), 2u);
  EXPECT_EQ(plan.masks.size(), 2u);
  EXPECT_EQ(plan.stats.tasksDeduped, 1u);
}

TEST(EvalPlan, NextIsAnUnmaskedSingleStepColumn) {
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ X \"b\" ]",
      "P=? [ F<=4 \"b\" ]",
  }));
  // Same psi, but X propagates unmasked — the columns must not merge.
  ASSERT_EQ(plan.columns.size(), 2u);
  EXPECT_EQ(plan.masks.size(), 1u);
  ASSERT_EQ(plan.bounded.size(), 2u);
  EXPECT_EQ(plan.bounded[0].bound, 1u);
  const auto& nextColumn = plan.columns[plan.bounded[0].column];
  EXPECT_FALSE(nextColumn.masked);
}

TEST(EvalPlan, MixedRequestPartition) {
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ F<=10 \"target\" ]",   // bounded group
      "R=? [ I=40 ]",               // transient group
      "R=? [ C<=25 ]",              // transient group
      "P=? [ F \"target\" ]",       // single (unbounded)
      "R=? [ S ]",                  // single (steady state)
  }));
  EXPECT_EQ(plan.bounded.size(), 1u);
  EXPECT_EQ(plan.transients.size(), 2u);
  EXPECT_EQ(plan.singles.size(), 2u);
  // One shared (default) reward structure for both transient entries.
  EXPECT_EQ(plan.rewardNames.size(), 1u);
  EXPECT_EQ(plan.transientSteps(), 40u);
  // I=40 needs 40 steps, C<=25 samples through step 24: shared sweep of 40.
  EXPECT_EQ(plan.stats.traversalsSaved, 24u);
}

TEST(EvalPlan, TimeBoundedFormulasAlwaysJoinAGroup) {
  // mc::Checker answers singles only for unbounded operators, steady state
  // and reachability rewards; it relies on every time-bounded formula
  // landing in the bounded group and every I=/C<= in the transient group.
  const auto properties = parseAll({
      "P=? [ X \"a\" ]",
      "P=? [ \"a\" U<=4 \"b\" ]",
      "P=? [ F<=6 \"b\" ]",
      "P=? [ G<=3 \"a\" ]",
      "R=? [ I=10 ]",
      "R=? [ C<=7 ]",
      "P=? [ F \"b\" ]",
      "P=? [ \"a\" U \"b\" ]",
      "R=? [ S ]",
      "R=? [ F \"b\" ]",
  });
  const auto plan = pctl::buildPlan(properties);
  std::vector<std::size_t> bounded, transients, singles;
  for (const auto& readout : plan.bounded) bounded.push_back(readout.property);
  for (const auto& entry : plan.transients) {
    transients.push_back(entry.property);
  }
  for (const auto& single : plan.singles) singles.push_back(single.property);
  EXPECT_EQ(bounded, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(transients, (std::vector<std::size_t>{4, 5}));
  EXPECT_EQ(singles, (std::vector<std::size_t>{6, 7, 8, 9}));
  for (const std::size_t i : singles) {
    const pctl::Property& p = properties[i];
    if (p.kind == pctl::Property::Kind::kProb) {
      EXPECT_FALSE(pctl::isTimeBounded(p.prob.path)) << i;
    } else {
      EXPECT_TRUE(p.reward.kind == pctl::RewardQuery::Kind::kSteadyState ||
                  p.reward.kind == pctl::RewardQuery::Kind::kReachability)
          << i;
    }
  }
}

TEST(EvalPlan, StructurallyIdenticalSinglesRunOnce) {
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ F \"target\" ]",
      "R=? [ S ]",
      "P=? [ F \"target\" ]",  // repeat of the first single
      "P=? [ F \"other\" ]",
  }));
  ASSERT_EQ(plan.singles.size(), 3u);
  ASSERT_EQ(plan.singleDuplicates.size(), 1u);
  EXPECT_EQ(plan.singleDuplicates[0].first, 2u);
  EXPECT_EQ(plan.singleDuplicates[0].second, 0u);
  EXPECT_EQ(plan.stats.tasksDeduped, 1u);
  // 2 masks ("target", "other") + 3 singles; the duplicate check runs
  // before interning, so the repeat counts one dedup, not a mask hit too.
  EXPECT_EQ(plan.stats.tasksPlanned, 5u);
}

TEST(EvalPlan, TasksPlannedCountsDistinctWork) {
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ F<=5 \"target\" ]",
      "P=? [ F<=9 \"target\" ]",
      "R=? [ I=40 ]",
      "P=? [ F \"other\" ]",
  }));
  // 2 masks ("target", "other") + 1 column + 1 reward vector + bounded
  // group + transient group + 1 single.
  EXPECT_EQ(plan.stats.tasksPlanned, 7u);
}

TEST(EvalPlan, SinglesShareMasksWithBoundedColumns) {
  // A bounded and an unbounded query over the same target set evaluate
  // that set once: the single's psiMask hits the bounded column's mask.
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ F<=5 \"target\" ]",
      "P=? [ F \"target\" ]",
      "R=? [ F \"target\" ]",
  }));
  ASSERT_EQ(plan.masks.size(), 1u);
  ASSERT_EQ(plan.singles.size(), 2u);
  EXPECT_EQ(plan.singles[0].psiMask, 0u);
  EXPECT_EQ(plan.singles[0].phiMask, pctl::EvalPlan::kNoMask);
  EXPECT_EQ(plan.singles[1].psiMask, 0u);
  EXPECT_EQ(plan.stats.tasksDeduped, 2u);  // two single-task mask hits
}

TEST(EvalPlan, UnboundedSinglesInternLikeTheirBoundedTwins) {
  // G phi answers as 1 - reach(!phi), so the single interns the negated
  // operand and shares it with the plain F; a non-trivial until phi gets
  // its own mask slot.
  const auto plan = pctl::buildPlan(parseAll({
      "P=? [ F \"flag\" ]",
      "P=? [ G !\"flag\" ]",
      "P=? [ \"a\" U \"flag\" ]",
  }));
  ASSERT_EQ(plan.masks.size(), 2u);  // "flag" and "a"
  ASSERT_EQ(plan.singles.size(), 3u);
  EXPECT_EQ(plan.singles[1].psiMask, plan.singles[0].psiMask);
  EXPECT_EQ(plan.singles[2].psiMask, plan.singles[0].psiMask);
  EXPECT_NE(plan.singles[2].phiMask, pctl::EvalPlan::kNoMask);
  EXPECT_EQ(plan.stats.tasksDeduped, 2u);  // G and U psi-mask hits
}

}  // namespace
}  // namespace mimostat
