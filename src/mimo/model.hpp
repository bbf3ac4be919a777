// DTMC model of the ML MIMO detector (paper §IV-B).
//
// The detector's RTL is a three-phase pipeline, which is why the paper's
// reachability fixpoint for this model is tiny (RI=3):
//
//   phase 0 (draw):    sample the data bit x and the quantized channel
//                      coefficients h_b (Rayleigh cell probabilities);
//   phase 1 (receive): sample the quantized observations y_b given (h_b, x)
//                      (Gaussian cell probabilities, mean h_b * bpsk(x));
//   phase 2 (detect):  combinational ML decision; flag = (x_hat != x);
//                      registers reset and the pipeline restarts.
//
// `flag` is sticky between compute phases, so R=? [ I=T ] equals the BER
// for every T >= 2 regardless of T mod 3.
//
// The 2*Nr metric blocks (h_b, y_b) are i.i.d. given x and enter the
// decision only through the symmetric metric sum, so the block-permutation
// group is a symmetry (Table II); symmetryBlocks() exposes the block
// structure for lump::SymmetryReducedModel.
#pragma once

#include <array>

#include "dtmc/model.hpp"
#include "lump/symmetry.hpp"
#include "mimo/detector.hpp"

namespace mimostat::mimo {

class MimoDetectorModel : public dtmc::Model {
 public:
  explicit MimoDetectorModel(const MimoParams& params);

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override;
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override;
  void transitions(const dtmc::State& s,
                   std::vector<dtmc::Transition>& out) const override;
  /// Atom "error" = (flag == 1).
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override;
  /// Default reward = flag.
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override;
  /// Hash of the class and every MimoParams field
  /// (dtmc::Model::fingerprint).
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override;

  [[nodiscard]] const MimoParams& params() const { return detector_.params(); }
  [[nodiscard]] const MlDetector& detector() const { return detector_; }

  /// Variable blocks (h_b, y_b) for symmetry reduction.
  [[nodiscard]] lump::BlockStructure symmetryBlocks() const;

  [[nodiscard]] std::size_t idxPhase() const { return 0; }
  [[nodiscard]] std::size_t idxX() const { return 1; }
  [[nodiscard]] std::size_t idxH(int block) const {
    return 2 + static_cast<std::size_t>(block);
  }
  [[nodiscard]] std::size_t idxY(int block) const {
    return 2 + static_cast<std::size_t>(params().numBlocks()) +
           static_cast<std::size_t>(block);
  }
  [[nodiscard]] std::size_t idxFlag() const {
    return 2 + 2 * static_cast<std::size_t>(params().numBlocks());
  }

 private:
  void enumerateProduct(const dtmc::State& base, int blockIdx,
                        bool assignChannel, double probSoFar,
                        dtmc::State& current,
                        std::vector<dtmc::Transition>& out) const;

  MlDetector detector_;
  std::vector<double> hCellProbs_;
  /// yCellProbs_[hCell][x] = distribution over y cells.
  std::vector<std::array<std::vector<double>, 2>> yCellProbs_;
};

}  // namespace mimostat::mimo
