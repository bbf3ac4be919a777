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
//
// transitions() allocates nothing per call: phases 0 and 1 enumerate their
// cell products as target keys, setting one field of the packed key per
// cell, and add each leaf's key as it is reached. The receive phase keeps
// the h and y cells in stack arrays and decides each leaf from MlDetector's
// residual table: over the sorted block codes, or, when there are no more
// codes than blocks (1x4: 4 codes, 8 blocks), from per-code block counts
// kept as the cells are drawn — the same additions, so the same bits.
#pragma once

#include <array>
#include <vector>

#include "dtmc/model.hpp"
#include "lump/symmetry.hpp"
#include "mimo/detector.hpp"

namespace mimostat::mimo {

class MimoDetectorModel : public dtmc::Model {
 public:
  /// Throws std::invalid_argument unless params.nt == 1 (the paper's
  /// evaluated configurations), and what MlDetector throws.
  explicit MimoDetectorModel(const MimoParams& params);

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override;
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override;
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override;
  /// Atom "error" = (flag == 1).
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override;
  /// Default reward = flag.
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override;
  /// Hash of the class and every MimoParams field
  /// (dtmc::Model::fingerprint).
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override;
  /// Hash of the class and every MimoParams field but snrDb, which moves
  /// only the observation probabilities
  /// (dtmc::Model::structureFingerprint; a probability that reaches 0 at
  /// high SNR drops a target, which the re-valuation detects).
  [[nodiscard]] std::optional<std::uint64_t> structureFingerprint()
      const override;

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
  /// P(y cell | h cell, x) of one metric block.
  [[nodiscard]] const std::vector<double>& yCellProbs(int hCell, int x) const {
    return yCellProbs_[static_cast<std::size_t>(hCell)]
                      [static_cast<std::size_t>(x)];
  }

  /// Per-block cells of one state (or, when byCounts_, blocks per block
  /// code: there are then no more codes than blocks).
  using Cells = std::array<int, 2 * MlDetector::kMaxBlocks>;

  /// Phase 0: every channel-cell assignment of blocks [block, numBlocks),
  /// set in `key` and added to `out` with probability `prob` times the
  /// cells' probabilities.
  void drawChannel(int block, double prob, std::uint64_t key,
                   dtmc::Successors& out) const;
  /// Phase 1: every observation-cell assignment of blocks
  /// [block, numBlocks) given data bit `x` and the channel cells `h` (`key`
  /// and `y`, or `counts` when byCounts_, carry the cells drawn so far);
  /// each leaf's flag is the ML decision's error.
  void drawObservations(int block, double prob, std::uint64_t key, int x,
                        const Cells& h, Cells& y, Cells& counts,
                        dtmc::Successors& out) const;

  MlDetector detector_;
  dtmc::VarLayout layout_;
  /// Decide from per-code block counts (numCodes <= numBlocks).
  bool byCounts_ = false;
  std::vector<double> hCellProbs_;
  /// yCellProbs_[hCell][x] = distribution over y cells.
  std::vector<std::array<std::vector<double>, 2>> yCellProbs_;
};

}  // namespace mimostat::mimo
