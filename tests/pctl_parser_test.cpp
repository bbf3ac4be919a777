#include <gtest/gtest.h>

#include "pctl/ast.hpp"
#include "pctl/parser.hpp"
#include "pctl_print.hpp"

namespace mimostat {
namespace {

using pctl::parseProperty;
using pctl::parseStateFormula;
using pctl::ParseError;

TEST(Parser, PaperPropertyP1) {
  const auto p = parseProperty("P=? [ G<=300 !flag ]");
  ASSERT_EQ(p.kind, pctl::Property::Kind::kProb);
  EXPECT_TRUE(p.prob.isQuery);
  EXPECT_EQ(p.prob.path.kind, pctl::PathFormula::Kind::kGlobally);
  ASSERT_TRUE(p.prob.path.bound.has_value());
  EXPECT_EQ(*p.prob.path.bound, 300u);
  EXPECT_EQ(p.prob.path.lhs->kind, pctl::StateFormula::Kind::kNot);
}

TEST(Parser, PaperPropertyP2) {
  const auto p = parseProperty("R=? [ I=300 ]");
  ASSERT_EQ(p.kind, pctl::Property::Kind::kReward);
  EXPECT_EQ(p.reward.kind, pctl::RewardQuery::Kind::kInstantaneous);
  EXPECT_EQ(p.reward.bound, 300u);
  EXPECT_TRUE(p.reward.rewardName.empty());
}

TEST(Parser, PaperPropertyP3) {
  const auto p = parseProperty("P=? [ F<=300 errs>1 ]");
  EXPECT_EQ(p.prob.path.kind, pctl::PathFormula::Kind::kFinally);
  const auto& sf = *p.prob.path.lhs;
  EXPECT_EQ(sf.kind, pctl::StateFormula::Kind::kVarCmp);
  EXPECT_EQ(sf.name, "errs");
  EXPECT_EQ(sf.op, pctl::CmpOp::kGt);
  EXPECT_EQ(sf.value, 1);
}

TEST(Parser, NamedReward) {
  const auto p = parseProperty("R{\"nc4\"}=? [ I=100 ]");
  EXPECT_EQ(p.reward.rewardName, "nc4");
}

TEST(Parser, CumulativeAndSteadyRewards) {
  EXPECT_EQ(parseProperty("R=? [ C<=50 ]").reward.kind,
            pctl::RewardQuery::Kind::kCumulative);
  EXPECT_EQ(parseProperty("R=? [ S ]").reward.kind,
            pctl::RewardQuery::Kind::kSteadyState);
}

TEST(Parser, ReachabilityReward) {
  const auto p = parseProperty("R=? [ F s=0 | s=6 ]");
  ASSERT_EQ(p.reward.kind, pctl::RewardQuery::Kind::kReachability);
  ASSERT_TRUE(p.reward.target != nullptr);
  EXPECT_EQ(p.reward.target->kind, pctl::StateFormula::Kind::kOr);
  // Round trip.
  EXPECT_EQ(pctl::toString(parseProperty(pctl::toString(p))),
            pctl::toString(p));
}

TEST(Parser, ProbabilityBound) {
  const auto p = parseProperty("P>=0.99 [ F<=10 \"error\" ]");
  EXPECT_FALSE(p.prob.isQuery);
  EXPECT_EQ(p.prob.boundOp, pctl::CmpOp::kGe);
  EXPECT_NEAR(p.prob.boundValue, 0.99, 1e-15);
  EXPECT_EQ(p.prob.path.lhs->kind, pctl::StateFormula::Kind::kAtom);
  EXPECT_EQ(p.prob.path.lhs->name, "error");
}

TEST(Parser, UntilWithBound) {
  const auto p = parseProperty("P=? [ !flag U<=20 errs>=2 ]");
  EXPECT_EQ(p.prob.path.kind, pctl::PathFormula::Kind::kUntil);
  ASSERT_TRUE(p.prob.path.bound.has_value());
  EXPECT_EQ(*p.prob.path.bound, 20u);
}

TEST(Parser, UnboundedOperators) {
  EXPECT_FALSE(parseProperty("P=? [ F flag ]").prob.path.bound.has_value());
  EXPECT_FALSE(parseProperty("P=? [ G !flag ]").prob.path.bound.has_value());
  EXPECT_FALSE(
      parseProperty("P=? [ true U flag ]").prob.path.bound.has_value());
}

TEST(Parser, NextOperator) {
  const auto p = parseProperty("P=? [ X flag ]");
  EXPECT_EQ(p.prob.path.kind, pctl::PathFormula::Kind::kNext);
}

TEST(Parser, PrecedenceNotBindsTighterThanAnd) {
  const auto f = parseStateFormula("!a & b");
  ASSERT_EQ(f->kind, pctl::StateFormula::Kind::kAnd);
  EXPECT_EQ(f->lhs->kind, pctl::StateFormula::Kind::kNot);
}

TEST(Parser, PrecedenceAndBindsTighterThanOr) {
  const auto f = parseStateFormula("a | b & c");
  ASSERT_EQ(f->kind, pctl::StateFormula::Kind::kOr);
  EXPECT_EQ(f->rhs->kind, pctl::StateFormula::Kind::kAnd);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  const auto f = parseStateFormula("(a | b) & c");
  ASSERT_EQ(f->kind, pctl::StateFormula::Kind::kAnd);
  EXPECT_EQ(f->lhs->kind, pctl::StateFormula::Kind::kOr);
}

TEST(Parser, TrueFalseLiterals) {
  EXPECT_EQ(parseStateFormula("true")->kind, pctl::StateFormula::Kind::kTrue);
  EXPECT_EQ(parseStateFormula("false")->kind, pctl::StateFormula::Kind::kFalse);
}

TEST(Parser, AllComparisonOps) {
  for (const auto* text :
       {"x=1", "x!=1", "x<1", "x<=1", "x>1", "x>=1"}) {
    const auto f = parseStateFormula(text);
    EXPECT_EQ(f->kind, pctl::StateFormula::Kind::kVarCmp) << text;
  }
}

TEST(Parser, RoundTripThroughToString) {
  for (const auto* text : {
           "P=? [ G<=300 !flag ]",
           "R=? [ I=300 ]",
           "P=? [ F<=300 errs>1 ]",
           "P>=0.5 [ !flag U<=20 errs>=2 ]",
           "R{\"nc4\"}=? [ C<=100 ]",
           "P=? [ X flag & count<=6 ]",
       }) {
    const auto parsed = parseProperty(text);
    const auto printed = pctl::toString(parsed);
    const auto reparsed = parseProperty(printed);
    EXPECT_EQ(pctl::toString(reparsed), printed) << text;
  }
}

TEST(Parser, ErrorsAreReported) {
  EXPECT_THROW(parseProperty("P=? [ G<=300 !flag"), ParseError);
  EXPECT_THROW(parseProperty("Q=? [ F flag ]"), ParseError);
  EXPECT_THROW(parseProperty("P=? [ F<=x flag ]"), ParseError);
  EXPECT_THROW(parseProperty("R=? [ I=1 ] extra"), ParseError);
  EXPECT_THROW(parseProperty("P=? [ flag ]"), ParseError);  // missing U
  EXPECT_THROW(parseStateFormula("a &"), ParseError);
  EXPECT_THROW(parseStateFormula("\"unterminated"), ParseError);
  EXPECT_THROW(parseProperty("P=? [ F<=1.5 flag ]"), ParseError);
}

TEST(Parser, ErrorPositionIsUseful) {
  try {
    static_cast<void>(parseProperty("P=? [ G<=300 @flag ]"));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.position(), 13u);
  }
}

}  // namespace
}  // namespace mimostat
