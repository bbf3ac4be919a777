#include <gtest/gtest.h>

#include "dtmc/builder.hpp"
#include "dtmc/graph.hpp"
#include "mc/checker.hpp"
#include "mc/transient.hpp"
#include "test_models.hpp"
#include "viterbi/model_convergence.hpp"
#include "viterbi/sim.hpp"

namespace mimostat {
namespace {

viterbi::ViterbiParams convParams(int traceLength) {
  viterbi::ViterbiParams p;
  p.tracebackLength = traceLength;
  p.snrDb = 8.0;  // the paper's convergence experiment SNR
  return p;
}

TEST(Convergence, ModelIsSmall) {
  // The reduction to (pm0, pm1, x0, count) keeps the model tiny — the
  // paper reports ~61k states vs hundreds of millions for the full model.
  const viterbi::ConvergenceViterbiModel model(convParams(8), 12);
  const auto result = dtmc::buildExplicit(model);
  EXPECT_LT(result.dtmc.numStates(), 5000u);
  EXPECT_LT(test::maxRowDeviation(result.dtmc), 1e-12);
}

TEST(Convergence, CountResetsOnConvergentStage) {
  const viterbi::ConvergenceViterbiModel model(convParams(4), 8);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto countIdx = d.varLayout().indexOf("count");
  // Every transition either resets count to 0 or increments (with cap).
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    const auto count = d.varValue(s, countIdx);
    for (std::uint64_t k = d.rowPtr()[s]; k < d.rowPtr()[s + 1]; ++k) {
      const auto next = d.varValue(d.col()[k], countIdx);
      EXPECT_TRUE(next == 0 || next == std::min(count + 1, 8)) << count;
    }
  }
}

TEST(Convergence, NonConvergenceDecreasesWithL) {
  // Figure 2: C1 decreases with the traceback length. One model with a
  // large counter answers every L via the nc<k> reward structures.
  const viterbi::ConvergenceViterbiModel model(convParams(5), 12);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  double previous = 1.0;
  for (const int L : {2, 3, 4, 5, 6, 8, 10}) {
    const std::string prop =
        "R{\"nc" + std::to_string(L) + "\"}=? [ I=400 ]";
    const double c1 = checker.check(prop).value;
    EXPECT_LE(c1, previous + 1e-12) << "L=" << L;
    EXPECT_GE(c1, 0.0);
    previous = c1;
  }
}

TEST(Convergence, DefaultRewardMatchesNamedReward) {
  const viterbi::ConvergenceViterbiModel model(convParams(6), 10);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  EXPECT_NEAR(checker.check("R=? [ I=200 ]").value,
              checker.check("R{\"nc6\"}=? [ I=200 ]").value, 1e-15);
}

TEST(Convergence, SteadyStateReached) {
  const viterbi::ConvergenceViterbiModel model(convParams(8), 12);
  const auto build = dtmc::buildExplicit(model);
  const auto reward = build.dtmc.evalReward(model, "");
  const auto detection =
      mc::detectRewardSteadyState(build.dtmc, reward, 1e-12, 16, 5000);
  EXPECT_TRUE(detection.converged);
  // Table IV: values at T=100/400/1000 differ only marginally.
  const mc::Checker checker(build.dtmc, model);
  const double t100 = checker.check("R=? [ I=100 ]").value;
  const double t1000 = checker.check("R=? [ I=1000 ]").value;
  EXPECT_NEAR(t100, t1000, 1e-4 + 0.05 * t1000);
}

TEST(Convergence, ChainHasUniqueRecurrentClass) {
  // §III's precondition for steady state, checked structurally. The
  // biased initial path metric (pm1 = pmCap) is transient — the decoder
  // never returns to its reset state — so the chain is not irreducible as
  // a whole; what steady state needs is a unique (aperiodic) recurrent
  // class reached from the initial state.
  const viterbi::ConvergenceViterbiModel model(convParams(4), 8);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto scc = dtmc::computeSccs(d);
  EXPECT_EQ(scc.bottomComponents.size(), 1u);
  // Aperiodicity within the recurrent class: the reward transient settles
  // to a constant (it would oscillate forever on a periodic class).
  const auto reward = d.evalReward(model, "");
  const auto detection =
      mc::detectRewardSteadyState(d, reward, 1e-12, 16, 5000);
  EXPECT_TRUE(detection.converged);
}

TEST(Convergence, ModelMatchesSimulation) {
  // Cross-validate C1 against the bit-accurate decoder simulation.
  const int L = 4;
  const viterbi::ConvergenceViterbiModel model(convParams(L), 8);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);
  const double modelC1 = checker.check("R=? [ I=2000 ]").value;
  const auto sim = viterbi::simulate(convParams(L), 400000, 2024);
  const auto interval = sim.nonConvergent.wilson(0.99);
  EXPECT_TRUE(interval.contains(modelC1))
      << "model " << modelC1 << " sim [" << interval.low << ", "
      << interval.high << "]";
}

TEST(Convergence, AtomNonconvMatchesReward) {
  const viterbi::ConvergenceViterbiModel model(convParams(4), 8);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto truth = d.evalAtom(model, "nonconv");
  const auto reward = d.evalReward(model, "");
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    EXPECT_EQ(truth.get(s), reward[s] == 1.0);
  }
}

}  // namespace
}  // namespace mimostat
