// The pre-refactor loops, verbatim: the independent oracles the optimized
// paths must reproduce bit for bit.
//  - Numeric loops for the la::spmm-based paths (mc::Checker's bounded
//    group and transient sweep, power iteration). They index the CSR
//    arrays directly and call no la:: kernel, so a kernel bug cannot hide
//    in both sides of a comparison.
//  - The MIMO detector's transition function and quantized ML decision as
//    they were before dtmc::Successors and the residual table: a
//    vector-building enumeration with per-call State copies, and a decision
//    that recomputes every block residual from quantizer values.
//  - Rows of State-vector targets and the templated normalizeTransitions
//    that sorted and merged them, as they were before every layer moved to
//    packed keys; the legacy builder and the verbatim sampler run on them.
//  - lump::lump's signature refinement as it was before la::KeyNumbering:
//    the initial partition and every round numbered in state order through
//    a std::unordered_map on the calling thread.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/channel.hpp"
#include "comm/rayleigh.hpp"
#include "comm/snr.hpp"
#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "la/csr_matrix.hpp"
#include "la/exec.hpp"
#include "lump/bisim.hpp"
#include "mimo/model.hpp"
#include "stats/gaussian.hpp"
#include "util/hash.hpp"

namespace mimostat::test {

/// One probabilistic successor: (probability, target state).
struct Transition {
  double prob = 0.0;
  dtmc::State target;
};

/// Sort a successor list by target, merge duplicate targets (summing their
/// probabilities in sorted order) and optionally drop entries below
/// `floor`, renormalizing the remainder. Returns the total probability mass
/// before normalization (should be ~1). `Entry` is Transition or any
/// {prob, target} pair whose targets compare like State: on packed keys,
/// which order as the states do, the same std::sort makes the same
/// comparisons, so duplicates merge bit-identically.
template <class Entry>
double normalizeTransitions(std::vector<Entry>& row, double floor) {
  if (row.empty()) return 0.0;
  std::sort(row.begin(), row.end(), [](const Entry& a, const Entry& b) {
    return a.target < b.target;
  });
  // Merge duplicates in place.
  std::size_t out = 0;
  for (std::size_t i = 1; i < row.size(); ++i) {
    if (row[i].target == row[out].target) {
      row[out].prob += row[i].prob;
    } else {
      ++out;
      if (out != i) row[out] = std::move(row[i]);
    }
  }
  row.resize(out + 1);

  double mass = 0.0;
  for (const auto& t : row) mass += t.prob;

  if (floor > 0.0) {
    std::erase_if(row, [floor](const Entry& t) { return t.prob < floor; });
    assert(!row.empty() && "probability floor removed all transitions");
    double kept = 0.0;
    for (const auto& t : row) kept += t.prob;
    if (kept > 0.0 && kept != mass) {
      const double scale = mass / kept;
      for (auto& t : row) t.prob *= scale;
    }
  }
  return mass;
}

/// `model`'s successors of `s` with State targets, in the order the model
/// added them: collected through `sink` (packing by `layout`, the model's)
/// and unpacked.
inline void collectTransitions(const dtmc::Model& model,
                               const dtmc::VarLayout& layout,
                               const dtmc::State& s, dtmc::Successors& sink,
                               std::vector<Transition>& out) {
  sink.clear();
  model.transitions(s, sink);
  out.clear();
  for (const dtmc::PackedTransition& t : sink.entries()) {
    out.push_back({t.prob, layout.unpack(t.target)});
  }
}

/// y = x^T A by the source-major scatter (the old left product).
inline std::vector<double> legacyScatterLeft(const la::CsrMatrix& m,
                                             const std::vector<double>& x) {
  std::vector<double> y(m.numCols(), 0.0);
  for (std::uint32_t s = 0; s < m.numRows(); ++s) {
    const double xs = x[s];
    if (xs == 0.0) continue;
    for (std::uint64_t k = m.rowPtr()[s]; k < m.rowPtr()[s + 1]; ++k) {
      y[m.col()[k]] += xs * m.val()[k];
    }
  }
  return y;
}

/// y = A x by the row gather (the old right product).
inline std::vector<double> legacyGatherRight(const la::CsrMatrix& m,
                                             const std::vector<double>& x) {
  std::vector<double> y(m.numRows(), 0.0);
  for (std::uint32_t s = 0; s < m.numRows(); ++s) {
    double acc = 0.0;
    for (std::uint64_t k = m.rowPtr()[s]; k < m.rowPtr()[s + 1]; ++k) {
      acc += m.val()[k] * x[m.col()[k]];
    }
    y[s] = acc;
  }
  return y;
}

/// Per-state P(phi U<=bound psi): the old bounded-until loop.
inline std::vector<double> legacyBoundedUntil(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<std::uint8_t>& phi,
    const std::vector<std::uint8_t>& psi, std::uint64_t bound) {
  const std::uint32_t n = dtmc.numStates();
  std::vector<double> x(n);
  for (std::uint32_t s = 0; s < n; ++s) x[s] = psi[s] ? 1.0 : 0.0;
  std::vector<double> next(n);
  for (std::uint64_t j = 0; j < bound; ++j) {
    for (std::uint32_t s = 0; s < n; ++s) {
      if (psi[s]) {
        next[s] = 1.0;
      } else if (!phi[s]) {
        next[s] = 0.0;
      } else {
        double acc = 0.0;
        for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1];
             ++k) {
          acc += dtmc.val()[k] * x[dtmc.col()[k]];
        }
        next[s] = acc;
      }
    }
    x.swap(next);
  }
  return x;
}

/// Per-state P(X psi): the old next-step skip loop.
inline std::vector<double> legacyNextProb(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<std::uint8_t>& psi) {
  const std::uint32_t n = dtmc.numStates();
  std::vector<double> x(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    double acc = 0.0;
    for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1]; ++k) {
      if (psi[dtmc.col()[k]]) acc += dtmc.val()[k];
    }
    x[s] = acc;
  }
  return x;
}

/// pi P^steps by `steps` scatter multiplies, with no fixed-point exit.
inline std::vector<double> legacyPropagate(const dtmc::ExplicitDtmc& dtmc,
                                           std::vector<double> pi,
                                           std::uint64_t steps) {
  for (std::uint64_t t = 0; t < steps; ++t) {
    pi = legacyScatterLeft(dtmc.matrix(), pi);
  }
  return pi;
}

/// pi . r summed left to right.
inline double legacyDot(const std::vector<double>& pi,
                        const std::vector<double>& reward) {
  double acc = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) acc += pi[s] * reward[s];
  return acc;
}

/// R=?[I=steps]: pi_steps . r from the initial distribution.
inline double legacyInstantaneous(const dtmc::ExplicitDtmc& dtmc,
                                  const std::vector<double>& reward,
                                  std::uint64_t steps) {
  return legacyDot(legacyPropagate(dtmc, dtmc.initialDistribution(), steps),
                   reward);
}

/// R=?[C<=steps]: sum over t < steps of pi_t . r, t ascending.
inline double legacyCumulative(const dtmc::ExplicitDtmc& dtmc,
                               const std::vector<double>& reward,
                               std::uint64_t steps) {
  std::vector<double> pi = dtmc.initialDistribution();
  double total = 0.0;
  for (std::uint64_t t = 0; t < steps; ++t) {
    total += legacyDot(pi, reward);
    pi = legacyScatterLeft(dtmc.matrix(), pi);
  }
  return total;
}

/// Per-block residual |y_b - sum_k h_{b,k} bpsk(s_k)| for hypothesis s.
inline double legacyBlockResidual(double y, const double* h, int nt,
                                  int hypothesis) {
  double expected = 0.0;
  for (int k = 0; k < nt; ++k) {
    expected += h[k] * comm::bpsk((hypothesis >> k) & 1);
  }
  return std::fabs(y - expected);
}

/// MlDetector::detectQuantized before the residual table: sorts the block
/// indices by cell tuple and recomputes each residual from the quantizers'
/// reconstruction values.
inline int legacyDetectQuantized(const mimo::MlDetector& detector,
                                 const std::vector<int>& yCells,
                                 const std::vector<int>& hCells) {
  const mimo::MimoParams& params_ = detector.params();
  const comm::UniformQuantizer& hQuant_ = detector.hQuantizer();
  const comm::UniformQuantizer& yQuant_ = detector.yQuantizer();
  constexpr int kMaxBlocks = mimo::MlDetector::kMaxBlocks;
  const int nt = params_.nt;
  const auto blocks = yCells.size();

  // Quantized metrics frequently tie in exact arithmetic; floating-point
  // addition is not associative, so a naive block-order sum would break the
  // block-permutation symmetry the DTMC reduction relies on. Accumulate in
  // a canonical block order (sorted by the block's cell tuple) so the
  // decision is a function of the block multiset only.
  std::array<std::size_t, 2 * kMaxBlocks> order;
  for (std::size_t b = 0; b < blocks; ++b) order[b] = b;
  const auto blockLess = [&](std::size_t a, std::size_t b) {
    for (int k = 0; k < nt; ++k) {
      const int ha = hCells[a * static_cast<std::size_t>(nt) +
                            static_cast<std::size_t>(k)];
      const int hb = hCells[b * static_cast<std::size_t>(nt) +
                            static_cast<std::size_t>(k)];
      if (ha != hb) return ha < hb;
    }
    return yCells[a] < yCells[b];
  };
  std::sort(order.begin(), order.begin() + blocks, blockLess);

  int best = 0;
  double bestMetric = std::numeric_limits<double>::infinity();
  std::array<double, 2 * kMaxBlocks> hv;
  for (int s = 0; s < params_.numHypotheses(); ++s) {
    double metric = 0.0;
    for (std::size_t i = 0; i < blocks; ++i) {
      const std::size_t b = order[i];
      const double yv = yQuant_.value(yCells[b]);
      for (int k = 0; k < nt; ++k) {
        hv[static_cast<std::size_t>(k)] = hQuant_.value(
            hCells[b * static_cast<std::size_t>(nt) +
                   static_cast<std::size_t>(k)]);
      }
      metric += legacyBlockResidual(yv, hv.data(), nt, s);
    }
    if (metric < bestMetric) {
      bestMetric = metric;
      best = s;
    }
  }
  return best;
}

/// P(y-cell | h in h-cell, x) by composite-Simpson integration of the
/// Gaussian mixture over the h-cell:
///   (1 / P(h-cell)) * Int_cell phi(h; 0, sigma_h) * P(y-cell | mean h*s) dh.
/// This is the exact conditional law of the system the simulator runs
/// (analog fading quantized at the receiver), not a cell-midpoint
/// approximation — so the DTMC and the Monte-Carlo baseline agree in
/// distribution, not just approximately.
inline std::vector<double> legacyConditionalYCellProbs(
    const comm::UniformQuantizer& hQuant, int hCell,
    const comm::UniformQuantizer& yQuant, double bpskSymbol,
    double noiseSigma, double hCellMass) {
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

/// mimo::MimoDetectorModel with the transition function it had before
/// dtmc::Successors: the successors are enumerated into a vector of
/// Transitions (one heap State each, plus the `next`/`current` copies and
/// the yCells/hCells vectors) and decided by legacyDetectQuantized, then
/// handed to the sink in emission order. It builds its own cell
/// probabilities, as the model's constructor did before the change;
/// everything else forwards to the model it wraps.
class LegacyMimoDetectorModel : public dtmc::Model {
 public:
  explicit LegacyMimoDetectorModel(const mimo::MimoParams& params)
      : model_(params) {
    const mimo::MlDetector& detector = model_.detector();
    hCellProbs_ = comm::RayleighFading(detector.hQuantizer())
                      .cellProbabilities();
    const double sigma = comm::noiseSigmaPerDimension(params.snrDb);
    yCellProbs_.resize(static_cast<std::size_t>(params.hLevels));
    for (int hc = 0; hc < params.hLevels; ++hc) {
      for (int x = 0; x < 2; ++x) {
        yCellProbs_[static_cast<std::size_t>(hc)]
                   [static_cast<std::size_t>(x)] = legacyConditionalYCellProbs(
            detector.hQuantizer(), hc, detector.yQuantizer(), comm::bpsk(x),
            sigma, hCellProbs_[static_cast<std::size_t>(hc)]);
      }
    }
  }

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return model_.variables();
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return model_.initialStates();
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    return model_.atom(s, name);
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override {
    return model_.stateReward(s, name);
  }

  void transitions(const dtmc::State& s,
                   dtmc::Successors& sink) const override {
    std::vector<Transition> out;
    legacyTransitions(s, out);
    for (const Transition& t : out) sink.add(t.prob, t.target);
  }

 private:
  [[nodiscard]] const mimo::MimoParams& params() const {
    return model_.params();
  }
  [[nodiscard]] std::size_t idxPhase() const { return model_.idxPhase(); }
  [[nodiscard]] std::size_t idxX() const { return model_.idxX(); }
  [[nodiscard]] std::size_t idxH(int block) const {
    return model_.idxH(block);
  }
  [[nodiscard]] std::size_t idxY(int block) const {
    return model_.idxY(block);
  }
  [[nodiscard]] std::size_t idxFlag() const { return model_.idxFlag(); }

  // From here on the pre-sink MimoDetectorModel::enumerateProduct and
  // ::transitions, verbatim.
  void enumerateProduct(const dtmc::State& base, int blockIdx,
                        bool assignChannel, double probSoFar,
                        dtmc::State& current,
                        std::vector<Transition>& out) const {
    const mimo::MimoParams& p = params();
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

  void legacyTransitions(const dtmc::State& s,
                         std::vector<Transition>& out) const {
    const mimo::MimoParams& p = params();
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
        const int detected =
            legacyDetectQuantized(model_.detector(), yCells, hCells);
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

  mimo::MimoDetectorModel model_;
  std::vector<double> hCellProbs_;
  /// yCellProbs_[hCell][x] = distribution over y cells.
  std::vector<std::array<std::vector<double>, 2>> yCellProbs_;
};

/// lump::lump's bucket of `value` at 1e-12, as hash input.
inline std::uint64_t legacyBucketOf(double value) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::llround(value / 1e-12)));
}

/// lump::lump's hash of a state's signature: sorted (target block,
/// bucketed prob) pairs, merged per block.
inline std::uint64_t legacySignatureHash(
    const dtmc::ExplicitDtmc& dtmc, std::uint32_t s,
    const std::vector<std::uint32_t>& blockOf,
    std::vector<std::pair<std::uint32_t, double>>& scratch) {
  scratch.clear();
  for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1]; ++k) {
    scratch.emplace_back(blockOf[dtmc.col()[k]], dtmc.val()[k]);
  }
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t hash = 0x9E3779B97F4A7C15ULL;
  std::size_t i = 0;
  while (i < scratch.size()) {
    const std::uint32_t block = scratch[i].first;
    double prob = 0.0;
    while (i < scratch.size() && scratch[i].first == block) {
      prob += scratch[i].second;
      ++i;
    }
    hash = util::hashCombine(hash, util::mix64(block));
    hash = util::hashCombine(hash, util::mix64(legacyBucketOf(prob)));
  }
  return hash;
}

/// lump::lump before la::KeyNumbering, verbatim but for the trace span.
inline lump::LumpResult legacyLump(const dtmc::ExplicitDtmc& dtmc,
                                   const lump::InitialKeys& initialKeys,
                                   const la::TaskRunner& runner = {}) {
  const std::uint32_t n = dtmc.numStates();
  assert(initialKeys.size() == n);

  lump::LumpResult result;
  std::vector<std::uint32_t>& blockOf = result.partition.blockOf;
  blockOf.assign(n, 0);

  // Initial partition from the keys.
  {
    std::unordered_map<std::uint64_t, std::uint32_t> blockIds;
    for (std::uint32_t s = 0; s < n; ++s) {
      auto [it, inserted] = blockIds.try_emplace(
          initialKeys[s], static_cast<std::uint32_t>(blockIds.size()));
      blockOf[s] = it->second;
    }
    result.partition.numBlocks = static_cast<std::uint32_t>(blockIds.size());
  }

  // Signature refinement to fixpoint. Each round hashes every state's
  // signature — a pure function of the state and the previous round's
  // partition — over the matrix's row blocks (on `runner` when the matrix
  // is large enough), then numbers the new blocks in state order on this
  // thread, so the partition is the same at any pool size. A signature
  // includes the state's block, so a round only splits blocks; the loop
  // stops at the first round that adds none (the partition is stable), at
  // most n rounds in.
  const la::CsrMatrix& matrix = dtmc.matrix();
  const bool fanOut = runner != nullptr && matrix.blockCount() > 1 &&
                      dtmc.numTransitions() >=
                          la::Exec::kDefaultParallelThresholdNnz;
  const std::size_t ranges = fanOut ? matrix.blockCount() : 1;
  std::vector<std::uint64_t> signature(n);
  std::vector<std::uint32_t> newBlockOf(n);
  for (;;) {
    ++result.refinementRounds;
    la::runTasks(runner, ranges, [&](std::size_t r) {
      std::vector<std::pair<std::uint32_t, double>> scratch;
      const std::uint32_t end = fanOut ? matrix.blockEnd(r) : n;
      for (std::uint32_t s = fanOut ? matrix.blockBegin(r) : 0; s < end; ++s) {
        signature[s] = util::hashCombine(
            util::mix64(blockOf[s]),
            legacySignatureHash(dtmc, s, blockOf, scratch));
      }
    });
    std::unordered_map<std::uint64_t, std::uint32_t> blockIds;
    blockIds.reserve(result.partition.numBlocks * 2);
    for (std::uint32_t s = 0; s < n; ++s) {
      auto [it, inserted] = blockIds.try_emplace(
          signature[s], static_cast<std::uint32_t>(blockIds.size()));
      newBlockOf[s] = it->second;
    }
    const auto newCount = static_cast<std::uint32_t>(blockIds.size());
    blockOf.swap(newBlockOf);
    if (newCount == result.partition.numBlocks) break;
    result.partition.numBlocks = newCount;
  }

  // Representatives: first state of each block.
  result.representative.assign(result.partition.numBlocks, ~0u);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (result.representative[blockOf[s]] == ~0u) {
      result.representative[blockOf[s]] = s;
    }
  }

  // Quotient matrix: aggregate each representative's row per target block.
  dtmc::ExplicitDtmc::Raw raw;
  raw.layout = dtmc.varLayout();
  raw.rowPtr.reserve(result.partition.numBlocks + 1);
  raw.rowPtr.push_back(0);
  std::vector<double> rowAccum(result.partition.numBlocks, 0.0);
  std::vector<std::uint32_t> touched;
  for (std::uint32_t b = 0; b < result.partition.numBlocks; ++b) {
    const std::uint32_t rep = result.representative[b];
    touched.clear();
    for (std::uint64_t k = dtmc.rowPtr()[rep]; k < dtmc.rowPtr()[rep + 1]; ++k) {
      const std::uint32_t tb = blockOf[dtmc.col()[k]];
      if (rowAccum[tb] == 0.0) touched.push_back(tb);
      rowAccum[tb] += dtmc.val()[k];
    }
    std::sort(touched.begin(), touched.end());
    for (const std::uint32_t tb : touched) {
      raw.col.push_back(tb);
      raw.val.push_back(rowAccum[tb]);
      rowAccum[tb] = 0.0;
    }
    raw.rowPtr.push_back(raw.col.size());
  }

  // Initial distribution: block mass = sum of member masses.
  raw.initial.assign(result.partition.numBlocks, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    raw.initial[blockOf[s]] += dtmc.initialDistribution()[s];
  }

  // Quotient state table: representatives (keeps VarCmp properties usable),
  // copied in the original table's form.
  dtmc.copyStatesInto(result.representative, raw);

  result.quotient = dtmc::ExplicitDtmc::fromRaw(std::move(raw));
  return result;
}

}  // namespace mimostat::test
