// Full DTMC model M of the Viterbi decoder (paper §IV-A-1).
//
// State variables (Eq. 2-5):
//   pm0, pm1              normalized saturating path metrics
//   x_0 .. x_{L-1}        actual data bits of the last L time steps
//   prev0_0 .. prev0_{L-1},
//   prev1_0 .. prev1_{L-1} trellis predecessor pointers per stage
//   flag                  decoded bit in error?
//   errs (optional)       saturating error counter for the P3 property
//
// Transition (one RTL clock): draw x0' ~ Bernoulli(1/2) and the quantized
// sample q with the Gaussian cell probability given (x0', x0); run ACS;
// shift the trellis; traceback; compare against x_{L-1}.
#pragma once

#include "dtmc/model.hpp"
#include "viterbi/code.hpp"

namespace mimostat::viterbi {

class FullViterbiModel : public dtmc::Model {
 public:
  explicit FullViterbiModel(const ViterbiParams& params);

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override;
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override;
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override;
  /// Atom "error" = (flag == 1).
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override;
  /// Default reward = flag (the paper's reward model for P2).
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override;
  /// Hash of the class and its parameters (dtmc::Model::fingerprint).
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override;

  [[nodiscard]] const ViterbiParams& params() const { return kernel_.params(); }
  [[nodiscard]] const TrellisKernel& kernel() const { return kernel_; }

  // Variable indices (exposed for the abstraction function and tests).
  [[nodiscard]] std::size_t idxPm0() const { return 0; }
  [[nodiscard]] std::size_t idxPm1() const { return 1; }
  [[nodiscard]] std::size_t idxX(int stage) const {
    return 2 + static_cast<std::size_t>(stage);
  }
  [[nodiscard]] std::size_t idxPrev0(int stage) const {
    return 2 + static_cast<std::size_t>(traceLength()) +
           static_cast<std::size_t>(stage);
  }
  [[nodiscard]] std::size_t idxPrev1(int stage) const {
    return 2 + 2 * static_cast<std::size_t>(traceLength()) +
           static_cast<std::size_t>(stage);
  }
  [[nodiscard]] std::size_t idxFlag() const {
    return 2 + 3 * static_cast<std::size_t>(traceLength());
  }
  [[nodiscard]] std::size_t idxErrs() const { return idxFlag() + 1; }

 private:
  [[nodiscard]] int traceLength() const {
    return kernel_.params().tracebackLength;
  }

  TrellisKernel kernel_;
};

}  // namespace mimostat::viterbi
