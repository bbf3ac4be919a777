#include "mimo/model.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

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

/// `params`, once checked to be an Nt = 1 system.
const MimoParams& singleStream(const MimoParams& params) {
  // The DTMC model covers the paper's evaluated configurations (Nt = 1);
  // the detector/simulator additionally support the 2x2 system of Eq. 14.
  if (params.nt != 1) {
    throw std::invalid_argument(
        "MimoDetectorModel: models Nt = 1 systems only");
  }
  return params;
}

/// phase, x, the h and y cells of each block, then flag (all from 0).
std::vector<dtmc::VarSpec> variablesOf(const MimoParams& p) {
  std::vector<dtmc::VarSpec> vars;
  vars.push_back({"phase", 0, 2});
  vars.push_back({"x", 0, 1});
  for (const char* cell : {"h", "y"}) {
    for (int b = 0; b < p.numBlocks(); ++b) {
      std::string name = cell;
      name += std::to_string(b);
      vars.push_back({name, 0, (*cell == 'h' ? p.hLevels : p.yLevels) - 1});
    }
  }
  vars.push_back({"flag", 0, 1});
  return vars;
}

}  // namespace

MimoDetectorModel::MimoDetectorModel(const MimoParams& params)
    : detector_(singleStream(params)),
      layout_(variablesOf(params)),
      byCounts_(detector_.numCodes() <= params.numBlocks()) {
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

std::optional<std::uint64_t> MimoDetectorModel::structureFingerprint() const {
  constexpr std::uint64_t kStructureTag = 0x4D696D6F53747275ull;
  MimoParams structure = params();
  structure.snrDb = 0.0;
  return hashParams(kStructureTag, structure);
}

std::vector<dtmc::VarSpec> MimoDetectorModel::variables() const {
  return layout_.vars();
}

std::vector<dtmc::State> MimoDetectorModel::initialStates() const {
  return {dtmc::State(layout_.numVars(), 0)};
}

void MimoDetectorModel::drawChannel(int block, double prob, std::uint64_t key,
                                    dtmc::Successors& out) const {
  if (block == params().numBlocks()) {
    out.add(prob, key);
    return;
  }
  for (int hc = 0; hc < params().hLevels; ++hc) {
    const double cellProb = hCellProbs_[static_cast<std::size_t>(hc)];
    if (cellProb <= 0.0) continue;
    layout_.setField(key, idxH(block), hc);
    drawChannel(block + 1, prob * cellProb, key, out);
  }
}

void MimoDetectorModel::drawObservations(int block, double prob,
                                         std::uint64_t key, int x,
                                         const Cells& h, Cells& y,
                                         Cells& counts,
                                         dtmc::Successors& out) const {
  const MimoParams& p = params();
  if (block == p.numBlocks()) {
    // The ML decision is combinational: it sets the flag of every target.
    const auto blocks = static_cast<std::size_t>(p.numBlocks());
    const int detected =
        byCounts_ ? detector_.detectCounts(
                        {counts.data(),
                         static_cast<std::size_t>(detector_.numCodes())})
                  : detector_.detectQuantized({y.data(), blocks},
                                              {h.data(), blocks});
    layout_.setField(key, idxFlag(), detected != x ? 1 : 0);
    out.add(prob, key);
    return;
  }
  const auto b = static_cast<std::size_t>(block);
  const std::vector<double>& dist = yCellProbs(h[b], x);
  for (int yc = 0; yc < p.yLevels; ++yc) {
    const double cellProb = dist[static_cast<std::size_t>(yc)];
    if (cellProb <= 0.0) continue;
    layout_.setField(key, idxY(block), yc);
    y[b] = yc;
    const auto code = static_cast<std::size_t>(h[b] * p.yLevels + yc);
    if (byCounts_) ++counts[code];
    drawObservations(block + 1, prob * cellProb, key, x, h, y, counts, out);
    if (byCounts_) --counts[code];
  }
}

void MimoDetectorModel::transitions(const dtmc::State& s,
                                    dtmc::Successors& out) const {
  const MimoParams& p = params();
  std::uint64_t key = layout_.pack(s);
  const int phase = s[idxPhase()];

  if (phase == 0) {
    // Draw x and all channel cells; observations reset to cell 0 until the
    // receive phase fills them in.
    layout_.setField(key, idxPhase(), 1);
    for (int b = 0; b < p.numBlocks(); ++b) layout_.setField(key, idxY(b), 0);
    for (int x = 0; x < 2; ++x) {
      layout_.setField(key, idxX(), x);
      drawChannel(0, 0.5, key, out);
    }
  } else if (phase == 1) {
    // Draw all observation cells conditioned on (h, x).
    layout_.setField(key, idxPhase(), 2);
    Cells h{};
    Cells y{};
    Cells counts{};
    for (int b = 0; b < p.numBlocks(); ++b) {
      h[static_cast<std::size_t>(b)] = s[idxH(b)];
    }
    drawObservations(0, 1.0, key, s[idxX()], h, y, counts, out);
  } else {
    // Detect phase: registers reset, pipeline restarts; flag is sticky.
    key = 0;  // every field at its lower bound, 0
    layout_.setField(key, idxFlag(), s[idxFlag()]);
    out.add(1.0, key);
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
