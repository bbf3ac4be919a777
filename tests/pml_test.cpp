#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "dtmc/builder.hpp"
#include "mc/checker.hpp"
#include "pml/eval.hpp"
#include "pml/model.hpp"
#include "pml/parser.hpp"
#include "test_models.hpp"

namespace mimostat {
namespace {

constexpr const char* kTwoStateSource = R"(
// the canonical two-state chain with P(0->1)=a, P(1->0)=b
dtmc
const double a = 0.3;
const double b = 0.4;

module chain
  s : [0..1] init 0;

  [] s=0 -> a : (s'=1) + 1-a : (s'=0);
  [] s=1 -> b : (s'=0) + 1-b : (s'=1);
endmodule

rewards
  s=1 : 1;
endrewards

label "one" = s=1;
)";

double twoStateP1(double a, double b, std::uint64_t t) {
  return a / (a + b) * (1.0 - std::pow(1.0 - a - b, static_cast<double>(t)));
}

TEST(PmlExpr, Arithmetic) {
  const pml::Environment env{{"x", 5.0}, {"y", 2.0}};
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("x + y * 3"), env), 11.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("(x + y) * 3"), env), 21.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("-x + 1"), env), -4.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("x / y"), env), 2.5);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("min(x, y)"), env), 2.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("max(x, y)"), env), 5.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("mod(x, y)"), env), 1.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("floor(x / y)"), env), 2.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("ceil(x / y)"), env), 3.0);
}

TEST(PmlExpr, BooleansAndComparisons) {
  const pml::Environment env{{"x", 5.0}};
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("x >= 5 & x < 6"), env), 1.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("x = 4 | x = 5"), env), 1.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("!(x != 5)"), env), 1.0);
  EXPECT_EQ(pml::evaluate(*pml::parseExpression("true & false"), env), 0.0);
}

TEST(PmlExpr, Errors) {
  const pml::Environment env;
  const auto evaluate = [&](const char* text) {
    static_cast<void>(pml::evaluate(*pml::parseExpression(text), env));
  };
  EXPECT_THROW(evaluate("nope"), pml::EvalError);
  EXPECT_THROW(evaluate("1 / 0"), pml::EvalError);
  EXPECT_THROW(evaluate("mod(1.5, 2)"), pml::EvalError);
  EXPECT_THROW(pml::parseExpression("1 +"), pml::PmlParseError);
}

TEST(PmlModel, ParsesStructure) {
  const pml::PmlModel model(kTwoStateSource);
  EXPECT_EQ(model.decl().module.name, "chain");
  EXPECT_EQ(model.decl().constants.size(), 2u);
  EXPECT_EQ(model.decl().module.commands.size(), 2u);
  EXPECT_NEAR(model.constants().at("a"), 0.3, 1e-15);
  const auto vars = model.variables();
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0].name, "s");
  EXPECT_EQ(vars[0].hi, 1);
}

TEST(PmlModel, MatchesClosedForm) {
  const pml::PmlModel model(kTwoStateSource);
  const auto d = dtmc::buildExplicit(model).dtmc;
  EXPECT_EQ(d.numStates(), 2u);
  EXPECT_LT(test::maxRowDeviation(d), 1e-12);
  const mc::Checker checker(d, model);
  EXPECT_NEAR(checker.check("R=? [ I=10 ]").value, twoStateP1(0.3, 0.4, 10),
              1e-12);
  EXPECT_NEAR(checker.check("P=? [ F<=1 \"one\" ]").value, 0.3, 1e-15);
  EXPECT_NEAR(checker.check("P=? [ F<=1 s=1 ]").value, 0.3, 1e-15);
}

TEST(PmlModel, AbsorbingWhenNoCommandEnabled) {
  const pml::PmlModel model(R"(
dtmc
module m
  s : [0..2] init 0;
  [] s<2 -> 0.5 : (s'=s+1) + 0.5 : (s'=min(s+2, 2));
endmodule
)");
  const auto d = dtmc::buildExplicit(model).dtmc;
  // State s=2 has no enabled command -> self loop.
  const mc::Checker checker(d, model);
  EXPECT_NEAR(checker.check("P=? [ F s=2 ]").value, 1.0, 1e-9);
}

TEST(PmlModel, ConstantsReferenceEarlierConstants) {
  const pml::PmlModel model(R"(
dtmc
const int N = 4;
const double p = 1 / (N + 1);
module m
  s : [0..N] init 0;
  [] s<N -> p : (s'=s+1) + 1-p : (s'=s);
  [] s=N -> (s'=N);
endmodule
)");
  EXPECT_NEAR(model.constants().at("p"), 0.2, 1e-15);
  const auto d = dtmc::buildExplicit(model).dtmc;
  EXPECT_EQ(d.numStates(), 5u);
}

TEST(PmlModel, GamblersRuinExpectedDuration) {
  // Unit reward per step before absorption: for a fair game from i on
  // [0,n], the expected duration is i*(n-i) — checked through the full
  // text -> model -> R=?[F ...] pipeline.
  const pml::PmlModel model(R"(
dtmc
const int N = 8;
module ruin
  s : [0..N] init 3;
  [] s>0 & s<N -> 0.5 : (s'=s-1) + 0.5 : (s'=s+1);
endmodule
rewards
  s>0 & s<N : 1;
endrewards
label "absorbed" = s=0 | s=N;
)");
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  EXPECT_NEAR(checker.check("R=? [ F \"absorbed\" ]").value, 3.0 * 5.0, 1e-7);
}

TEST(PmlModel, NamedRewards) {
  const pml::PmlModel model(R"(
dtmc
module m
  s : [0..1] init 0;
  [] true -> 0.5 : (s'=0) + 0.5 : (s'=1);
endmodule
rewards "ones"
  s=1 : 2;
endrewards
)");
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  EXPECT_NEAR(checker.check("R{\"ones\"}=? [ I=5 ]").value, 1.0, 1e-12);
  EXPECT_NEAR(checker.check("R=? [ I=5 ]").value, 0.0, 1e-12);  // no default
}

TEST(PmlModel, RejectsMalformedPrograms) {
  EXPECT_THROW(pml::PmlModel("mdp\nmodule m endmodule"), pml::PmlParseError);
  EXPECT_THROW(pml::PmlModel("dtmc"), pml::PmlParseError);  // no module
  EXPECT_THROW(pml::PmlModel(R"(
dtmc
module a  s : [0..1] init 0; endmodule
module b  t : [0..1] init 0; endmodule
)"),
               pml::PmlParseError);  // multiple modules
  EXPECT_THROW(pml::PmlModel(R"(
dtmc
module m  s : [0..1] init 5; endmodule
)"),
               pml::EvalError);  // init out of range
  EXPECT_THROW(pml::PmlModel(R"(
dtmc
module m  s : [3..1] init 3; endmodule
)"),
               pml::EvalError);  // empty range
}

TEST(PmlModel, OutOfRangeAssignmentThrowsAtExploration) {
  const pml::PmlModel model(R"(
dtmc
module m
  s : [0..1] init 0;
  [] true -> (s'=s+1);
endmodule
)");
  EXPECT_THROW(dtmc::buildExplicit(model), pml::EvalError);
}

TEST(PmlModel, CommentsAndWhitespace) {
  const pml::PmlModel model(R"(
dtmc
// leading comment
module m // trailing comment
  s : [0..1] init 0;   // var comment
  [] true -> 1 : (s'=1-s);
endmodule
)");
  const auto d = dtmc::buildExplicit(model).dtmc;
  EXPECT_EQ(d.numStates(), 2u);
}

TEST(PmlModel, LoadsFromFile) {
  const std::string path = ::testing::TempDir() + "pml_test_model.pml";
  {
    std::ofstream file(path);
    file << "dtmc\nmodule m\n  s : [0..1] init 0;\n"
            "  [] true -> 0.5 : (s'=0) + 0.5 : (s'=1);\nendmodule\n"
            "label \"one\" = s=1;\n";
  }
  const pml::PmlModel model = pml::PmlModel::fromFile(path);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  EXPECT_NEAR(checker.check("P=? [ X \"one\" ]").value, 0.5, 1e-15);
  EXPECT_THROW(pml::PmlModel::fromFile("/nonexistent/nope.pml"),
               std::runtime_error);
}

TEST(PmlModel, ProbabilityMassValidatedByBuilder) {
  // Guards overlap, masses sum to 1.5: builder must flag the deviation.
  const pml::PmlModel model(R"(
dtmc
module m
  s : [0..1] init 0;
  [] true -> 1 : (s'=1-s);
  [] s=0 -> 0.5 : (s'=0);
endmodule
)");
  const auto result = dtmc::buildExplicit(model);
  EXPECT_GT(test::maxRowDeviation(result.dtmc), 0.4);
}

}  // namespace
}  // namespace mimostat
