// Cross-module integration scenarios: each test drives several subsystems
// end to end the way a downstream user would.
#include <gtest/gtest.h>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "legacy_builder.hpp"
#include "lump/symmetry.hpp"
#include "mc/checker.hpp"
#include "smc/smc.hpp"
#include "test_models.hpp"
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

TEST(Integration, AnalyzerOnSymmetryReducedComposition) {
  // Two identical lanes clocked together, canonicalised under lane swap,
  // and checked through the engine — three subsystems in one pipeline.
  const test::SymmetricBanksModel product(2, 0.4, 0.6);
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
  // must all coincide on an aperiodic chain.
  const test::MatrixModel model = test::driftChain();
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
