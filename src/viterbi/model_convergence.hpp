// Convergence DTMC model of the Viterbi decoder (paper §IV-C).
//
// A trellis stage is *convergent* when prev0 == prev1: all traceback paths
// through it merge. The property C1 asks for the steady-state probability
// that a decoded bit has non-converging traceback paths, i.e. that the last
// L stages were all non-convergent.
//
// Only (pm0, pm1, x0) drive the probabilistic kernel, and convergence of the
// new stage is a function of the ACS outputs alone — so the model keeps just
// those three variables plus a saturating run-length counter `count` of
// consecutive non-convergent stages (the paper's refinement function F_ref).
//
// Rewards: the default reward is (count > L) for the configured L; the
// named rewards "nc<k>" give (count > k) for any k <= maxCount-1, which lets
// one model sweep C1 over many traceback lengths (Figure 2) in a single
// transient pass.
#pragma once

#include "dtmc/model.hpp"
#include "viterbi/code.hpp"

namespace mimostat::viterbi {

class ConvergenceViterbiModel : public dtmc::Model {
 public:
  /// @param params    trellis parameters; params.tracebackLength is the L
  ///                  used by the default reward
  /// @param maxCount  saturation value of the run-length counter; must be
  ///                  > every L queried through "nc<k>" rewards
  ConvergenceViterbiModel(const ViterbiParams& params, int maxCount);

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override;
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override;
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override;
  /// Atom "nonconv" = (count > L).
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override;
  /// Default reward = (count > L); "nc<k>" = (count > k).
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override;
  /// Hash of the class and its parameters (dtmc::Model::fingerprint).
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override;

  [[nodiscard]] const ViterbiParams& params() const { return kernel_.params(); }
  [[nodiscard]] int maxCount() const { return maxCount_; }

  [[nodiscard]] std::size_t idxPm0() const { return 0; }
  [[nodiscard]] std::size_t idxPm1() const { return 1; }
  [[nodiscard]] std::size_t idxX0() const { return 2; }
  [[nodiscard]] std::size_t idxCount() const { return 3; }

 private:
  TrellisKernel kernel_;
  int maxCount_;
};

}  // namespace mimostat::viterbi
