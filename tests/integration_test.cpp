// Cross-module integration scenarios: each test drives several subsystems
// end to end the way a downstream user would.
#include <gtest/gtest.h>

#include <sstream>

#include "dtmc/builder.hpp"
#include "dtmc/compose.hpp"
#include "dtmc/io.hpp"
#include "engine/engine.hpp"
#include "legacy_builder.hpp"
#include "lump/bisim.hpp"
#include "lump/symmetry.hpp"
#include "lump/verify.hpp"
#include "mc/checker.hpp"
#include "mimo/model.hpp"
#include "pml/model.hpp"
#include "smc/smc.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

/// One exact engine request for `property` on `model`.
double checkValue(engine::AnalysisEngine& eng, const dtmc::Model& model,
                  const std::string& property) {
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {property};
  request.options.backend = engine::Backend::kExact;
  const auto response = eng.analyze(request);
  EXPECT_TRUE(response.ok()) << property;
  return response.results.at(0).value;
}

TEST(Integration, PmlModelThroughLumping) {
  // A PML model with two symmetric branches lumps; the quotient preserves
  // the reward transient.
  const pml::PmlModel model(R"(
dtmc
module twin
  s : [0..3] init 0;
  [] s=0 -> 0.5 : (s'=1) + 0.5 : (s'=2);
  [] s=1 -> (s'=3);
  [] s=2 -> (s'=3);
  [] s=3 -> (s'=0);
endmodule
rewards
  s=3 : 1;
endrewards
)");
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto reward = d.evalReward(model, "");
  const auto lumped = lump::lump(
      d, lump::keysFromMasksAndRewards(d.numStates(), {}, {&reward}));
  EXPECT_LT(lumped.partition.numBlocks, d.numStates());  // 1 and 2 merge
  EXPECT_TRUE(lump::verifyLumpable(d, lumped.partition).lumpable);
}

TEST(Integration, PmlModelsCompose) {
  const pml::PmlModel lane(R"(
dtmc
const double p = 0.3;
module lane
  busy : [0..1] init 0;
  [] busy=0 -> p : (busy'=1) + 1-p : (busy'=0);
  [] busy=1 -> (busy'=0);
endmodule
rewards
  busy=1 : 1;
endrewards
)");
  const dtmc::SynchronousProduct pair({&lane, &lane});
  engine::AnalysisEngine eng;
  // Expected busy lanes = 2x the single-lane expectation.
  EXPECT_NEAR(checkValue(eng, pair, "R=? [ I=13 ]"),
              2.0 * checkValue(eng, lane, "R=? [ I=13 ]"), 1e-12);
  // Qualified variables address individual lanes.
  const double lane0 = checkValue(eng, pair, "P=? [ F<=3 m0_busy=1 ]");
  const double lane1 = checkValue(eng, pair, "P=? [ F<=3 m1_busy=1 ]");
  EXPECT_NEAR(lane0, lane1, 1e-12);
}

TEST(Integration, SmcOnPmlModel) {
  const pml::PmlModel model(R"(
dtmc
module coin
  heads : [0..1] init 0;
  [] true -> 0.5 : (heads'=1) + 0.5 : (heads'=0);
endmodule
label "heads" = heads=1;
)");
  smc::SmcOptions options;
  options.paths = 20000;
  options.seed = 4;
  const auto estimate =
      smc::estimateProperty(model, "P=? [ X \"heads\" ]", options);
  EXPECT_TRUE(estimate.satisfied.wilson(0.999).contains(0.5));
}

TEST(Integration, SymbolicReachabilityOfViterbiModel) {
  // The packed one-pass exploration and the reference BFS agree on
  // the reachable state space of a real case-study model, not just on toy
  // matrices.
  viterbi::ViterbiParams params;
  params.tracebackLength = 3;
  params.pmCap = 3;
  const viterbi::ReducedViterbiModel model(params);
  const auto reference = test::legacyBuildExplicit(model);
  const auto explicitBuild = dtmc::buildExplicit(model);
  EXPECT_GT(explicitBuild.dtmc.numStates(), 1u);
  EXPECT_EQ(explicitBuild.dtmc.numStates(), reference.dtmc.numStates());
  EXPECT_EQ(explicitBuild.dtmc.numTransitions(),
            reference.dtmc.numTransitions());
  EXPECT_EQ(explicitBuild.reachabilityIterations,
            reference.reachabilityIterations);
}

TEST(Integration, ExportImportPreservesMimoBer) {
  mimo::MimoParams params;
  params.nr = 1;
  params.hLevels = 2;
  params.yLevels = 3;
  const mimo::MimoDetectorModel model(params);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker original(d, model);
  const double ber = original.check("R=? [ I=7 ]").value;

  std::stringstream tra;
  std::stringstream srew;
  dtmc::writeTra(d, tra);
  dtmc::writeSrew(d, model, "", srew);
  dtmc::ImportedExplicit imported;
  imported.dtmc = dtmc::readTra(tra, nullptr, 0);
  imported.rewards.emplace_back("", dtmc::readSrew(srew, d.numStates()));
  const dtmc::ImportedModel importedModel(std::move(imported));
  const auto rebuilt = dtmc::buildExplicit(importedModel).dtmc;
  const mc::Checker viaFiles(rebuilt, importedModel);
  EXPECT_NEAR(viaFiles.check("R=? [ I=7 ]").value, ber, 1e-12);
}

TEST(Integration, AnalyzerOnSymmetryReducedComposition) {
  // Compose two identical PML lanes, canonicalise under lane swap, and
  // check through the engine — four subsystems in one pipeline.
  const pml::PmlModel lane(R"(
dtmc
module lane
  v : [0..2] init 0;
  [] v<2 -> 0.4 : (v'=v+1) + 0.6 : (v'=0);
  [] v=2 -> (v'=0);
endmodule
rewards
  v=2 : 1;
endrewards
)");
  const dtmc::SynchronousProduct product({&lane, &lane});
  const lump::BlockStructure blocks{{0}, {1}};
  const lump::SymmetryReducedModel reduced(product, blocks);

  engine::AnalysisEngine eng;
  EXPECT_LT(eng.ensureBuilt(reduced)->dtmc.numStates(),
            eng.ensureBuilt(product)->dtmc.numStates());
  EXPECT_NEAR(checkValue(eng, product, "R=? [ I=21 ]"),
              checkValue(eng, reduced, "R=? [ I=21 ]"), 1e-12);
}

TEST(Integration, SteadyStateAgreesAcrossEngines) {
  // R=?[S], the T->inf limit of R=?[I=T], and the SMC estimate at large T
  // must all coincide on an aperiodic PML chain.
  const pml::PmlModel model(R"(
dtmc
module drift
  level : [0..4] init 0;
  [] level<4 -> 0.3 : (level'=level+1) + 0.7 : (level'=max(level-1, 0));
  [] level=4 -> 0.7 : (level'=3) + 0.3 : (level'=4);
endmodule
rewards
  true : level;
endrewards
)");
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const double steady = checker.check("R=? [ S ]").value;
  const double longT = checker.check("R=? [ I=2000 ]").value;
  EXPECT_NEAR(steady, longT, 1e-8);

  smc::SmcOptions options;
  options.paths = 20000;
  options.seed = 6;
  const auto sampled =
      smc::estimateInstantaneousReward(model, 200, "", options);
  EXPECT_NEAR(sampled.mean(), steady,
              4.0 * sampled.standardError() + 1e-3);
}

}  // namespace
}  // namespace mimostat
