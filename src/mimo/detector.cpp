#include "mimo/detector.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "comm/channel.hpp"
#include "util/hash.hpp"

namespace mimostat::mimo {

// A new MimoParams field changes the size: hash it below, then update the
// size.
static_assert(sizeof(MimoParams) == 48,
              "hashParams must hash every MimoParams field");

std::uint64_t hashParams(std::uint64_t classTag, const MimoParams& params) {
  std::uint64_t hash = util::mix64(classTag);
  hash = util::hashCombineInt(hash, params.nr);
  hash = util::hashCombineInt(hash, params.nt);
  hash = util::hashCombineDouble(hash, params.snrDb);
  hash = util::hashCombineInt(hash, params.hLevels);
  hash = util::hashCombineDouble(hash, params.hRange);
  hash = util::hashCombineInt(hash, params.yLevels);
  hash = util::hashCombineDouble(hash, params.yRange);
  return hash;
}

MimoParams mimo1x2Params() { return MimoParams{}; }

MimoParams mimo2x2Params() {
  MimoParams p;
  p.nr = 2;
  p.nt = 2;
  p.snrDb = 10.0;
  p.hLevels = 3;
  p.hRange = 1.5;
  p.yLevels = 6;
  p.yRange = 3.0;
  return p;
}

MimoParams mimo1x4Params() {
  MimoParams p;
  p.nr = 4;
  // The paper quotes 12 dB but does not pin down its noise normalization;
  // under our convention (comm/snr.hpp: per-dimension sigma^2 = N0/2 with
  // unit per-antenna signal power) 22 dB reproduces the paper's operating
  // point: a BER ~1e-5, low enough that a 1e5-step simulation typically
  // observes zero errors while the model checker computes it exactly.
  p.snrDb = 22.0;
  p.hLevels = 2;
  p.hRange = 1.2;
  p.yLevels = 2;
  p.yRange = 1.2;
  return p;
}

MlDetector::MlDetector(const MimoParams& params)
    : params_(params),
      hQuant_(params.hLevels, params.hRange),
      yQuant_(params.yLevels, params.yRange) {
  assert(params_.nr >= 1);
}

namespace {

/// Per-block residual |y_b - sum_k h_{b,k} bpsk(s_k)| for hypothesis s.
double blockResidual(double y, const double* h, int nt, int hypothesis) {
  double expected = 0.0;
  for (int k = 0; k < nt; ++k) {
    expected += h[k] * comm::bpsk((hypothesis >> k) & 1);
  }
  return std::fabs(y - expected);
}

}  // namespace

int MlDetector::detectAnalog(const std::vector<double>& y,
                             const std::vector<double>& h) const {
  assert(y.size() == static_cast<std::size_t>(params_.numBlocks()));
  assert(h.size() == static_cast<std::size_t>(params_.numChannelParts()));
  const int nt = params_.nt;
  int best = 0;
  double bestMetric = std::numeric_limits<double>::infinity();
  for (int s = 0; s < params_.numHypotheses(); ++s) {
    double metric = 0.0;
    for (std::size_t b = 0; b < y.size(); ++b) {
      metric += blockResidual(y[b], &h[b * static_cast<std::size_t>(nt)], nt, s);
    }
    if (metric < bestMetric) {  // ties keep the smaller hypothesis index
      bestMetric = metric;
      best = s;
    }
  }
  return best;
}

int MlDetector::detectQuantized(const std::vector<int>& yCells,
                                const std::vector<int>& hCells) const {
  assert(yCells.size() == static_cast<std::size_t>(params_.numBlocks()));
  assert(hCells.size() == static_cast<std::size_t>(params_.numChannelParts()));
  const int nt = params_.nt;
  const auto blocks = yCells.size();

  // Quantized metrics frequently tie in exact arithmetic; floating-point
  // addition is not associative, so a naive block-order sum would break the
  // block-permutation symmetry the DTMC reduction relies on. Accumulate in
  // a canonical block order (sorted by the block's cell tuple) so the
  // decision is a function of the block multiset only.
  std::array<std::size_t, 2 * kMaxBlocks> order;
  assert(blocks <= order.size());
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
      metric += blockResidual(yv, hv.data(), nt, s);
    }
    if (metric < bestMetric) {
      bestMetric = metric;
      best = s;
    }
  }
  return best;
}

}  // namespace mimostat::mimo
