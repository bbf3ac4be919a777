// Maximum-likelihood MIMO detection (paper §IV-B, after Han/Erdogan/Arslan).
//
// For an Nt=1 BPSK transmission over Nr receive antennas with flat Rayleigh
// fading, the complex system y_j = h_j s + n_j splits into 2*Nr independent
// real "metric blocks" (real and imaginary part per antenna):
//
//   x_hat = argmin_{s in {0,1}} sum_b | y_b - h_b * bpsk(s) |     (Eq. 14/15)
//
// The detector is implemented twice: an analog (double) datapath used by the
// Monte-Carlo baseline and a quantized datapath operating on quantizer cell
// indices — the latter is the function embedded in the DTMC model, so model
// and simulation share the decision logic.
//
// The quantized datapath decides from a residual table. A metric block's
// cells — its nt channel cells in mixed radix, then its y cell — form its
// block code, and residual[s][code] holds |y - sum_k h_k bpsk(s_k)| for
// hypothesis s, computed once from the quantizers' reconstruction values.
// Block codes ascend exactly as the block tuples sort, so summing the
// table in ascending code order adds the same doubles in the same order
// as recomputing each residual in canonical block order would.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/quantizer.hpp"

namespace mimostat::mimo {

/// Case-study parameters. Defaults are the 1x2 configuration (Table II/V);
/// see mimo1x4Params() for the other one. The detector and the simulator
/// also take nt = 2 (the 2x2 system of paper Eq. 14-15).
struct MimoParams {
  int nr = 2;            ///< receive antennas
  int nt = 1;            ///< transmit antennas (BPSK per antenna)
  double snrDb = 8.0;    ///< SNR per receive antenna
  int hLevels = 3;       ///< quantizer cells per channel-coefficient part
  double hRange = 1.5;   ///< channel quantizer full-scale
  int yLevels = 6;       ///< quantizer cells per received-sample part
  double yRange = 3.0;   ///< sample quantizer full-scale

  /// Metric blocks (paper Eq. 15): one per real dimension of y — 2*Nr.
  [[nodiscard]] int numBlocks() const { return 2 * nr; }
  /// Real-valued channel coefficients: nt per metric block.
  [[nodiscard]] int numChannelParts() const { return 2 * nr * nt; }
  /// ML hypotheses: 2^nt BPSK vectors.
  [[nodiscard]] int numHypotheses() const { return 1 << nt; }
};

/// Fingerprint hash of every MimoParams field, seeded with a per-model
/// class tag (dtmc::Model::fingerprint).
[[nodiscard]] std::uint64_t hashParams(std::uint64_t classTag,
                                       const MimoParams& params);

/// The paper's 1x2 detector configuration (SNR 8 dB).
[[nodiscard]] MimoParams mimo1x2Params();
/// The paper's 1x4 detector configuration (SNR 12 dB, coarser quantizers).
[[nodiscard]] MimoParams mimo1x4Params();

class MlDetector {
 public:
  /// Upper bound on Nr supported by the permutation-stable quantized
  /// metric accumulator (its stack arrays hold 2 * kMaxBlocks blocks).
  static constexpr int kMaxBlocks = 16;
  /// Upper bound on the residual table's entries (hypotheses x block
  /// codes = 2^nt * hLevels^nt * yLevels).
  static constexpr std::int64_t kMaxTableEntries = std::int64_t{1} << 22;

  /// Throws std::invalid_argument unless 1 <= nr <= kMaxBlocks, nt >= 1
  /// and the residual table fits kMaxTableEntries.
  explicit MlDetector(const MimoParams& params);

  [[nodiscard]] const MimoParams& params() const { return params_; }
  [[nodiscard]] const comm::UniformQuantizer& hQuantizer() const {
    return hQuant_;
  }
  [[nodiscard]] const comm::UniformQuantizer& yQuantizer() const {
    return yQuant_;
  }

  /// ML decision from analog per-block observations (paper Eq. 14/15):
  /// returns the index of the most likely transmitted bit vector (bit k =
  /// stream k's bit). `y` has numBlocks() entries; `h` has
  /// numChannelParts() entries, h[b*nt + k] being stream k's coefficient in
  /// metric block b. Ties decide the smallest index.
  [[nodiscard]] int detectAnalog(const std::vector<double>& y,
                                 const std::vector<double>& h) const;

  /// ML decision from quantizer cell indices (reconstruction-value metric),
  /// with `yCells` and `hCells` laid out as detectAnalog's y and h. The
  /// block codes are sorted (counted, when there are no more codes than
  /// blocks; else insertion-sorted) and each hypothesis sums its table
  /// entries in ascending code order: a canonical accumulation order, so
  /// the decision is invariant under metric-block permutation — required
  /// by the symmetry reduction. Ties decide the smallest index.
  [[nodiscard]] int detectQuantized(std::span<const int> yCells,
                                    std::span<const int> hCells) const;
  /// detectQuantized from per-code block counts (counts[code] blocks have
  /// block code `code`; numCodes() entries): each hypothesis adds
  /// residual[code] counts[code] times, code by code in ascending order —
  /// the additions detectQuantized makes over the sorted codes, so the
  /// decision is the same bit for bit.
  [[nodiscard]] int detectCounts(std::span<const int> counts) const;
  /// Block codes: hLevels^nt * yLevels.
  [[nodiscard]] int numCodes() const { return numCodes_; }

 private:
  /// The hypothesis of least metric(its residual table row); ties decide
  /// the smallest index.
  template <class Metric>
  [[nodiscard]] int decide(const Metric& metric) const;

  MimoParams params_;
  comm::UniformQuantizer hQuant_;
  comm::UniformQuantizer yQuant_;
  int numCodes_ = 0;
  /// residual_[s * numCodes_ + code]: the block residual of hypothesis s.
  std::vector<double> residual_;
};

}  // namespace mimostat::mimo
