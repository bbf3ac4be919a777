#include "mimo/detector.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

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

namespace {

/// Per-block residual |y_b - sum_k h_{b,k} bpsk(s_k)| for hypothesis s.
double blockResidual(double y, const double* h, int nt, int hypothesis) {
  double expected = 0.0;
  for (int k = 0; k < nt; ++k) {
    expected += h[k] * comm::bpsk((hypothesis >> k) & 1);
  }
  return std::fabs(y - expected);
}

/// `params`, once checked against the detector's bounds.
const MimoParams& checked(const MimoParams& params) {
  if (params.nr < 1 || params.nr > MlDetector::kMaxBlocks) {
    throw std::invalid_argument("MlDetector: nr must be in 1.." +
                                std::to_string(MlDetector::kMaxBlocks));
  }
  if (params.nt < 1) {
    throw std::invalid_argument("MlDetector: nt must be at least 1");
  }
  std::int64_t entries = params.yLevels;
  for (int k = 0; k < params.nt; ++k) {
    entries *= 2 * std::int64_t{params.hLevels};
    if (entries > MlDetector::kMaxTableEntries) {
      throw std::invalid_argument(
          "MlDetector: the residual table would exceed kMaxTableEntries");
    }
  }
  return params;
}

}  // namespace

MlDetector::MlDetector(const MimoParams& params)
    : params_(checked(params)),
      hQuant_(params.hLevels, params.hRange),
      yQuant_(params.yLevels, params.yRange) {
  const int nt = params_.nt;
  int hCodes = 1;
  for (int k = 0; k < nt; ++k) hCodes *= params_.hLevels;
  numCodes_ = hCodes * params_.yLevels;
  residual_.resize(static_cast<std::size_t>(params_.numHypotheses()) *
                   static_cast<std::size_t>(numCodes_));
  std::vector<double> hv(static_cast<std::size_t>(nt));
  for (int code = 0; code < numCodes_; ++code) {
    // Decode the mixed radix: the y cell last, channel cell 0 first.
    const double yv = yQuant_.value(code % params_.yLevels);
    int hCode = code / params_.yLevels;
    for (int k = nt - 1; k >= 0; --k) {
      hv[static_cast<std::size_t>(k)] = hQuant_.value(hCode % params_.hLevels);
      hCode /= params_.hLevels;
    }
    for (int s = 0; s < params_.numHypotheses(); ++s) {
      residual_[static_cast<std::size_t>(s * numCodes_ + code)] =
          blockResidual(yv, hv.data(), nt, s);
    }
  }
}

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

template <class Metric>
int MlDetector::decide(const Metric& metric) const {
  int best = 0;
  double bestMetric = std::numeric_limits<double>::infinity();
  for (int s = 0; s < params_.numHypotheses(); ++s) {
    const double m = metric(residual_.data() + s * numCodes_);
    if (m < bestMetric) {
      bestMetric = m;
      best = s;
    }
  }
  return best;
}

int MlDetector::detectQuantized(std::span<const int> yCells,
                                std::span<const int> hCells) const {
  assert(yCells.size() == static_cast<std::size_t>(params_.numBlocks()));
  assert(hCells.size() == static_cast<std::size_t>(params_.numChannelParts()));
  const auto nt = static_cast<std::size_t>(params_.nt);
  const std::size_t blocks = yCells.size();

  // Quantized metrics frequently tie in exact arithmetic; floating-point
  // addition is not associative, so a naive block-order sum would break the
  // block-permutation symmetry the DTMC reduction relies on. Accumulate in
  // ascending block-code order (the block tuples' sorted order) so the
  // decision is a function of the block multiset only.
  std::array<int, 2 * kMaxBlocks> codes;
  for (std::size_t b = 0; b < blocks; ++b) {
    int code = 0;
    for (std::size_t k = 0; k < nt; ++k) {
      code = code * params_.hLevels + hCells[b * nt + k];
    }
    code = code * params_.yLevels + yCells[b];
    std::size_t i = b;
    for (; i > 0 && codes[i - 1] > code; --i) codes[i] = codes[i - 1];
    codes[i] = code;
  }
  return decide([&](const double* residual) {
    double metric = 0.0;
    for (std::size_t i = 0; i < blocks; ++i) metric += residual[codes[i]];
    return metric;
  });
}

int MlDetector::detectCounts(std::span<const int> counts) const {
  assert(counts.size() == static_cast<std::size_t>(numCodes_));
  return decide([&](const double* residual) {
    double metric = 0.0;
    for (std::size_t code = 0; code < counts.size(); ++code) {
      for (int c = 0; c < counts[code]; ++c) metric += residual[code];
    }
    return metric;
  });
}

}  // namespace mimostat::mimo
