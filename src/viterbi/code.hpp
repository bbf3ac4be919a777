// Shared definition of the paper's Viterbi case study (memory m=1, channel
// s[n] = a[n] + a[n-1]) and the RTL trellis kernel: quantized branch
// metrics, add-compare-select with min-normalisation and saturation, and
// traceback-start selection. The bit-accurate decoder (Monte-Carlo baseline)
// and the DTMC models all call into this kernel, so the DTMC is a faithful
// model of the simulated RTL by construction.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "comm/channel.hpp"
#include "comm/quantizer.hpp"

namespace mimostat::viterbi {

/// Parameters of the Viterbi case study. Defaults reproduce the paper's
/// setup (L=6 i.e. 5m < L, SNR 5 dB) with documented quantizer widths.
struct ViterbiParams {
  int tracebackLength = 6;   ///< L; decoding latency is L-1
  double snrDb = 5.0;        ///< channel SNR
  int quantLevels = 4;       ///< receiver ADC levels (2-bit)
  double quantRange = 3.0;   ///< ADC full-scale range
  int pmCap = 6;             ///< path-metric saturation (RTL register width)
  int bmCap = 6;             ///< branch-metric saturation
  /// |q - expected| -> integer scaling. The default of 2 keeps the four
  /// branch metrics of every quantizer cell distinct where it matters:
  /// with scale 1 the reconstruction value 0.75 is equidistant (rounded)
  /// from the 0 and +2 signal levels, which makes noiseless sequences
  /// undecodable — an RTL bug the model would faithfully reproduce.
  double bmScale = 2.0;
  bool withErrorCounter = false;  ///< add the saturating errs counter (P3)
  int errorThreshold = 1;    ///< P3: "number of errors > errorThreshold"
};

/// Fingerprint hash of every ViterbiParams field, seeded with a per-model
/// class tag (dtmc::Model::fingerprint).
[[nodiscard]] std::uint64_t hashParams(std::uint64_t classTag,
                                       const ViterbiParams& params);

/// One add-compare-select outcome.
struct AcsResult {
  std::int32_t pm0 = 0;   ///< normalized new path metric of internal state 0
  std::int32_t pm1 = 0;   ///< normalized new path metric of internal state 1
  int prev0 = 0;          ///< most-probable predecessor of internal state 0
  int prev1 = 0;          ///< most-probable predecessor of internal state 1
  int tracebackStart = 0; ///< internal state with the least path metric
};

/// Precomputed quantized branch metrics and the ACS step.
class TrellisKernel {
 public:
  explicit TrellisKernel(const ViterbiParams& params);

  [[nodiscard]] const ViterbiParams& params() const { return params_; }
  [[nodiscard]] const comm::DiscreteIsiChannel& channel() const {
    return channel_;
  }

  /// Branch metric of the trellis transition (previous state u -> current
  /// state v) given the quantized sample cell q.
  [[nodiscard]] std::int32_t branchMetric(int q, int u, int v) const {
    return bm_[static_cast<std::size_t>(q)][u][v];
  }

  /// Add-compare-select from the current path metrics and sample cell.
  /// Ties prefer predecessor 0 and traceback start 0 (documented RTL
  /// convention; the paper leaves this implementation-defined).
  [[nodiscard]] AcsResult acs(std::int32_t pm0, std::int32_t pm1, int q) const;

  /// P(q = cell | current bit, previous bit) — DTMC transition labels.
  [[nodiscard]] double cellProb(int current, int previous, int cell) const {
    return channel_.cellProb(current, previous, cell);
  }

 private:
  ViterbiParams params_;
  comm::IsiChannel isi_;
  comm::DiscreteIsiChannel channel_;
  std::vector<std::array<std::array<std::int32_t, 2>, 2>> bm_;
};

/// Traceback over explicit prev-pointer stages: start at `start`, hop
/// through stages 0..hops-1 (stage i maps the state at depth i to depth
/// i+1). Returns the internal state at depth `hops` = the decoded bit.
[[nodiscard]] int traceback(int start, const std::vector<int>& prev0Stages,
                            const std::vector<int>& prev1Stages, int hops);

}  // namespace mimostat::viterbi
