// Reduced DTMC model M_R of the Viterbi decoder (paper §IV-A-3).
//
// The error properties P1-P3 only need to know whether the decoded bit is
// wrong, not its value. Per trellis stage i we therefore replace
// (prev0_i, prev1_i, x_i) with two *relative* bits (the paper's c_i, w_i):
//
//   a_i = prev pointer taken from the CORRECT state hypothesis, wrong?
//         ( = prev_{x_i, i} XOR x_{i+1} )
//   b_i = prev pointer taken from the WRONG state hypothesis, wrong?
//         ( = prev_{!x_i, i} XOR x_{i+1} )
//
// Traceback then runs in relative coordinates: e_0 = (traceback start !=
// actual current bit), e_{i+1} = e_i ? b_i : a_i, and flag = e_{L-1}. The
// stored past data bits x_1..x_{L-1} disappear from the state vector —
// exactly the reduction the paper proves sound via the Strong Lumping
// Theorem. Gamma_p (the probabilistic kernel) only reads (pm0, pm1, x_0),
// all of which are retained, so the quotient preserves probabilities.
#pragma once

#include "dtmc/model.hpp"
#include "viterbi/code.hpp"

namespace mimostat::viterbi {

class ReducedViterbiModel : public dtmc::Model {
 public:
  explicit ReducedViterbiModel(const ViterbiParams& params);

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override;
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override;
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override;
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override;
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override;
  /// Hash of the class and its parameters (dtmc::Model::fingerprint).
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override;

  [[nodiscard]] const ViterbiParams& params() const { return kernel_.params(); }
  [[nodiscard]] const TrellisKernel& kernel() const { return kernel_; }

  // Variable indices. Stages run 0..L-2 (stage L-1's pointers are never
  // consulted by a traceback of L-1 hops, so they are dropped as well).
  [[nodiscard]] std::size_t idxPm0() const { return 0; }
  [[nodiscard]] std::size_t idxPm1() const { return 1; }
  [[nodiscard]] std::size_t idxX0() const { return 2; }
  [[nodiscard]] std::size_t idxA(int stage) const {
    return 3 + static_cast<std::size_t>(stage);
  }
  [[nodiscard]] std::size_t idxB(int stage) const {
    return 3 + static_cast<std::size_t>(numStages()) +
           static_cast<std::size_t>(stage);
  }
  [[nodiscard]] std::size_t idxFlag() const {
    return 3 + 2 * static_cast<std::size_t>(numStages());
  }
  [[nodiscard]] std::size_t idxErrs() const { return idxFlag() + 1; }

  /// Number of relative stages kept (L-1).
  [[nodiscard]] int numStages() const {
    return kernel_.params().tracebackLength - 1;
  }

 private:
  TrellisKernel kernel_;
};

}  // namespace mimostat::viterbi
