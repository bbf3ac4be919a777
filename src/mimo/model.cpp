#include "mimo/model.hpp"

#include <cassert>
#include <cmath>

#include "comm/channel.hpp"
#include "comm/rayleigh.hpp"
#include "comm/snr.hpp"
#include "stats/gaussian.hpp"

namespace mimostat::mimo {

namespace {

/// P(y-cell | h in h-cell, x) by composite-Simpson integration of the
/// Gaussian mixture over the h-cell:
///   (1 / P(h-cell)) * Int_cell phi(h; 0, sigma_h) * P(y-cell | mean h*s) dh.
/// This is the exact conditional law of the system the simulator runs
/// (analog fading quantized at the receiver), not a cell-midpoint
/// approximation — so the DTMC and the Monte-Carlo baseline agree in
/// distribution, not just approximately.
std::vector<double> conditionalYCellProbs(const comm::UniformQuantizer& hQuant,
                                          int hCell,
                                          const comm::UniformQuantizer& yQuant,
                                          double bpskSymbol, double noiseSigma,
                                          double hCellMass) {
  const double hSigma = comm::RayleighFading::perDimensionSigma();
  double lo = hQuant.lowerThreshold(hCell);
  double hi = hQuant.upperThreshold(hCell);
  // Clip the unbounded outer cells where the fading density is negligible.
  const double clip = 9.0 * hSigma;
  if (std::isinf(lo)) lo = -clip;
  if (std::isinf(hi)) hi = clip;

  constexpr int kIntervals = 512;  // even; Simpson error ~ (width/N)^4
  const double width = hi - lo;
  const double step = width / kIntervals;

  std::vector<double> probs(static_cast<std::size_t>(yQuant.levels()), 0.0);
  for (int i = 0; i <= kIntervals; ++i) {
    const double h = lo + step * i;
    const double weight = (i == 0 || i == kIntervals) ? 1.0
                          : (i % 2 == 1)              ? 4.0
                                                      : 2.0;
    const double density = stats::normalPdf(h / hSigma) / hSigma;
    const auto cells = yQuant.cellProbabilities(h * bpskSymbol, noiseSigma);
    for (int yc = 0; yc < yQuant.levels(); ++yc) {
      probs[static_cast<std::size_t>(yc)] +=
          weight * density * cells[static_cast<std::size_t>(yc)];
    }
  }
  const double scale = step / 3.0 / hCellMass;
  double total = 0.0;
  for (double& p : probs) {
    p *= scale;
    total += p;
  }
  // Remove the residual quadrature error so the DTMC rows sum to exactly 1.
  assert(std::fabs(total - 1.0) < 1e-6);
  for (double& p : probs) p /= total;
  return probs;
}

}  // namespace

MimoDetectorModel::MimoDetectorModel(const MimoParams& params)
    : detector_(params) {
  // The DTMC model covers the paper's evaluated configurations (Nt = 1);
  // the detector/simulator additionally support the 2x2 system of Eq. 14.
  assert(params.nt == 1 && "MimoDetectorModel models Nt=1 systems");
  const comm::RayleighFading fading(detector_.hQuantizer());
  hCellProbs_ = fading.cellProbabilities();

  const double sigma = comm::noiseSigmaPerDimension(params.snrDb);
  yCellProbs_.resize(static_cast<std::size_t>(params.hLevels));
  for (int hc = 0; hc < params.hLevels; ++hc) {
    for (int x = 0; x < 2; ++x) {
      yCellProbs_[static_cast<std::size_t>(hc)][static_cast<std::size_t>(x)] =
          conditionalYCellProbs(detector_.hQuantizer(), hc,
                                detector_.yQuantizer(), comm::bpsk(x), sigma,
                                hCellProbs_[static_cast<std::size_t>(hc)]);
    }
  }
}

std::optional<std::uint64_t> MimoDetectorModel::fingerprint() const {
  constexpr std::uint64_t kFingerprintTag = 0x4D696D6F44657465ull;
  return hashParams(kFingerprintTag, params());
}

std::vector<dtmc::VarSpec> MimoDetectorModel::variables() const {
  const MimoParams& p = params();
  std::vector<dtmc::VarSpec> vars;
  vars.push_back({"phase", 0, 2});
  vars.push_back({"x", 0, 1});
  for (int b = 0; b < p.numBlocks(); ++b) {
    vars.push_back({"h" + std::to_string(b), 0, p.hLevels - 1});
  }
  for (int b = 0; b < p.numBlocks(); ++b) {
    vars.push_back({"y" + std::to_string(b), 0, p.yLevels - 1});
  }
  vars.push_back({"flag", 0, 1});
  return vars;
}

std::vector<dtmc::State> MimoDetectorModel::initialStates() const {
  return {dtmc::State(variables().size(), 0)};
}

void MimoDetectorModel::enumerateProduct(const dtmc::State& base, int blockIdx,
                                         bool assignChannel, double probSoFar,
                                         dtmc::State& current,
                                         std::vector<dtmc::Transition>& out) const {
  const MimoParams& p = params();
  if (blockIdx == p.numBlocks()) {
    out.push_back({probSoFar, current});
    return;
  }
  if (assignChannel) {
    for (int hc = 0; hc < p.hLevels; ++hc) {
      const double prob = hCellProbs_[static_cast<std::size_t>(hc)];
      if (prob <= 0.0) continue;
      current[idxH(blockIdx)] = hc;
      enumerateProduct(base, blockIdx + 1, assignChannel, probSoFar * prob,
                       current, out);
    }
    current[idxH(blockIdx)] = base[idxH(blockIdx)];
  } else {
    const int hc = current[idxH(blockIdx)];
    const int x = current[idxX()];
    const auto& dist = yCellProbs_[static_cast<std::size_t>(hc)]
                                  [static_cast<std::size_t>(x)];
    for (int yc = 0; yc < p.yLevels; ++yc) {
      const double prob = dist[static_cast<std::size_t>(yc)];
      if (prob <= 0.0) continue;
      current[idxY(blockIdx)] = yc;
      enumerateProduct(base, blockIdx + 1, assignChannel, probSoFar * prob,
                       current, out);
    }
    current[idxY(blockIdx)] = base[idxY(blockIdx)];
  }
}

void MimoDetectorModel::transitions(const dtmc::State& s,
                                    std::vector<dtmc::Transition>& out) const {
  const MimoParams& p = params();
  const int phase = s[idxPhase()];

  if (phase == 0) {
    // Draw x and all channel cells; observations reset to cell 0 until the
    // receive phase fills them in.
    dtmc::State next(s);
    next[idxPhase()] = 1;
    for (int b = 0; b < p.numBlocks(); ++b) next[idxY(b)] = 0;
    for (int x = 0; x < 2; ++x) {
      next[idxX()] = x;
      dtmc::State current(next);
      enumerateProduct(next, 0, /*assignChannel=*/true, 0.5, current, out);
    }
  } else if (phase == 1) {
    // Draw all observation cells conditioned on (h, x).
    const std::size_t start = out.size();
    dtmc::State next(s);
    next[idxPhase()] = 2;
    dtmc::State current(next);
    enumerateProduct(next, 0, /*assignChannel=*/false, 1.0, current, out);
    // The ML decision is combinational: apply it to every emitted target.
    std::vector<int> yCells(static_cast<std::size_t>(p.numBlocks()));
    std::vector<int> hCells(static_cast<std::size_t>(p.numBlocks()));
    for (std::size_t i = start; i < out.size(); ++i) {
      auto& t = out[i];
      for (int b = 0; b < p.numBlocks(); ++b) {
        yCells[static_cast<std::size_t>(b)] = t.target[idxY(b)];
        hCells[static_cast<std::size_t>(b)] = t.target[idxH(b)];
      }
      const int detected = detector_.detectQuantized(yCells, hCells);
      t.target[idxFlag()] = (detected != t.target[idxX()]) ? 1 : 0;
    }
  } else {
    // Detect phase: registers reset, pipeline restarts; flag is sticky.
    dtmc::State next(s);
    next[idxPhase()] = 0;
    next[idxX()] = 0;
    for (int b = 0; b < p.numBlocks(); ++b) {
      next[idxH(b)] = 0;
      next[idxY(b)] = 0;
    }
    out.push_back({1.0, std::move(next)});
  }
}

bool MimoDetectorModel::atom(const dtmc::State& s, std::string_view name) const {
  if (name == "error") return s[idxFlag()] == 1;
  return false;
}

double MimoDetectorModel::stateReward(const dtmc::State& s,
                                      std::string_view name) const {
  if (name.empty() || name == "default" || name == "flag") {
    return static_cast<double>(s[idxFlag()]);
  }
  return 0.0;
}

lump::BlockStructure MimoDetectorModel::symmetryBlocks() const {
  lump::BlockStructure blocks;
  for (int b = 0; b < params().numBlocks(); ++b) {
    blocks.push_back({idxH(b), idxY(b)});
  }
  return blocks;
}

}  // namespace mimostat::mimo
