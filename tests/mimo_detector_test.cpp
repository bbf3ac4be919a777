#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "comm/channel.hpp"
#include "legacy_loops.hpp"
#include "mimo/detector.hpp"
#include "mimo/sim.hpp"
#include "util/rng.hpp"

namespace mimostat {
namespace {

/// The 2x2 system of paper Eq. 14-15 (two BPSK transmit streams), which the
/// detector and the simulator support and the DTMC model does not.
mimo::MimoParams mimo2x2Params() {
  mimo::MimoParams p;
  p.nr = 2;
  p.nt = 2;
  p.snrDb = 10.0;
  p.hLevels = 3;
  p.hRange = 1.5;
  p.yLevels = 6;
  p.yRange = 3.0;
  return p;
}

TEST(Detector, ParamsHelpers) {
  const auto p2 = mimo::mimo1x2Params();
  EXPECT_EQ(p2.nr, 2);
  EXPECT_EQ(p2.numBlocks(), 4);
  const auto p4 = mimo::mimo1x4Params();
  EXPECT_EQ(p4.nr, 4);
  EXPECT_EQ(p4.numBlocks(), 8);
  EXPECT_GT(p4.snrDb, p2.snrDb);
}

TEST(Detector, AnalogMatchesBruteForce) {
  const mimo::MlDetector detector(mimo::mimo1x2Params());
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> y(4);
    std::vector<double> h(4);
    for (int b = 0; b < 4; ++b) {
      y[b] = 2.0 * rng.nextDouble() - 1.0;
      h[b] = 2.0 * rng.nextDouble() - 1.0;
    }
    double m0 = 0.0;
    double m1 = 0.0;
    for (int b = 0; b < 4; ++b) {
      m0 += std::fabs(y[b] + h[b]);
      m1 += std::fabs(y[b] - h[b]);
    }
    EXPECT_EQ(detector.detectAnalog(y, h), m0 <= m1 ? 0 : 1);
  }
}

TEST(Detector, PerfectObservationDecodesCorrectly) {
  const mimo::MlDetector detector(mimo::mimo1x2Params());
  util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    const int x = rng.nextBit() ? 1 : 0;
    std::vector<double> h(4);
    std::vector<double> y(4);
    bool informative = false;
    for (int b = 0; b < 4; ++b) {
      h[b] = rng.nextGaussian();
      if (std::fabs(h[b]) > 0.3) informative = true;
      y[b] = h[b] * comm::bpsk(x);  // noiseless
    }
    if (!informative) continue;
    EXPECT_EQ(detector.detectAnalog(y, h), x);
  }
}

TEST(Detector, TieBreaksToZero) {
  const mimo::MlDetector detector(mimo::mimo1x2Params());
  const std::vector<double> y(4, 0.0);
  const std::vector<double> h(4, 0.0);
  EXPECT_EQ(detector.detectAnalog(y, h), 0);
  const std::vector<int> yCells(4, 0);
  const std::vector<int> hCells = {1, 1, 1, 1};  // middle cell, value 0
  EXPECT_EQ(detector.detectQuantized(yCells, hCells), 0);
}

TEST(Detector, QuantizedAgreesWithAnalogOnReconstructionValues) {
  const mimo::MlDetector detector(mimo::mimo1x2Params());
  util::Xoshiro256 rng(13);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<int> yCells(4);
    std::vector<int> hCells(4);
    std::vector<double> y(4);
    std::vector<double> h(4);
    for (int b = 0; b < 4; ++b) {
      yCells[b] = static_cast<int>(rng.nextBounded(6));
      hCells[b] = static_cast<int>(rng.nextBounded(3));
      y[b] = detector.yQuantizer().value(yCells[b]);
      h[b] = detector.hQuantizer().value(hCells[b]);
    }
    EXPECT_EQ(detector.detectQuantized(yCells, hCells),
              detector.detectAnalog(y, h));
  }
}

TEST(DetectorSim, AnalogBeatsQuantized) {
  // Quantization costs performance: the analog detector's BER must be no
  // worse than the coarsely quantized one.
  const auto params = mimo::mimo1x2Params();
  const auto analog = mimo::simulateAnalog(params, 200000, 3);
  const auto quantized = mimo::simulateQuantized(params, 200000, 3);
  EXPECT_LE(analog.bitErrors.estimate(),
            quantized.bitErrors.estimate() + 0.01);
}

TEST(DetectorSim, MoreAntennasFewerErrors) {
  // Receive diversity: the 1x4 detector at its (higher) SNR has a BER
  // orders of magnitude below the 1x2 detector — Table V's shape.
  const auto ber1x2 =
      mimo::simulateQuantized(mimo::mimo1x2Params(), 200000, 17);
  const auto ber1x4 =
      mimo::simulateQuantized(mimo::mimo1x4Params(), 200000, 17);
  EXPECT_LT(ber1x4.bitErrors.estimate(),
            0.5 * ber1x2.bitErrors.estimate() + 1e-6);
}

TEST(Detector2x2, ParamsAndShapes) {
  const auto p = mimo2x2Params();
  EXPECT_EQ(p.nt, 2);
  EXPECT_EQ(p.numBlocks(), 4);        // 2*Nr real dimensions
  EXPECT_EQ(p.numChannelParts(), 8);  // nt coefficients per block
  EXPECT_EQ(p.numHypotheses(), 4);    // BPSK vectors (s1, s2)
}

TEST(Detector2x2, AnalogMatchesBruteForce) {
  // Paper Eq. 14/15: argmin over the four (s1, s2) hypotheses of the sum
  // of per-dimension L1 residuals.
  const mimo::MlDetector detector(mimo2x2Params());
  util::Xoshiro256 rng(19);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<double> y(4);
    std::vector<double> h(8);
    for (auto& v : y) v = 2.0 * rng.nextDouble() - 1.0;
    for (auto& v : h) v = 2.0 * rng.nextDouble() - 1.0;
    int best = 0;
    double bestMetric = 1e300;
    for (int s = 0; s < 4; ++s) {
      double metric = 0.0;
      for (int b = 0; b < 4; ++b) {
        metric += std::fabs(y[b] - h[2 * b] * comm::bpsk(s & 1) -
                            h[2 * b + 1] * comm::bpsk((s >> 1) & 1));
      }
      if (metric < bestMetric) {
        bestMetric = metric;
        best = s;
      }
    }
    EXPECT_EQ(detector.detectAnalog(y, h), best) << trial;
  }
}

TEST(Detector2x2, NoiselessDecodesBothStreams) {
  const mimo::MlDetector detector(mimo2x2Params());
  util::Xoshiro256 rng(23);
  int checked = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const int x = static_cast<int>(rng.nextBounded(4));
    std::vector<double> h(8);
    for (auto& v : h) v = rng.nextGaussian();
    std::vector<double> y(4);
    bool wellConditioned = true;
    for (int b = 0; b < 4; ++b) {
      y[b] = h[2 * b] * comm::bpsk(x & 1) + h[2 * b + 1] * comm::bpsk(x >> 1);
    }
    // Skip near-singular channels where hypotheses are almost ambiguous.
    for (int s = 0; s < 4; ++s) {
      if (s == x) continue;
      double metric = 0.0;
      for (int b = 0; b < 4; ++b) {
        metric += std::fabs(y[b] - h[2 * b] * comm::bpsk(s & 1) -
                            h[2 * b + 1] * comm::bpsk((s >> 1) & 1));
      }
      if (metric < 0.3) wellConditioned = false;
    }
    if (!wellConditioned) continue;
    ++checked;
    EXPECT_EQ(detector.detectAnalog(y, h), x) << trial;
  }
  EXPECT_GT(checked, 100);
}

TEST(Detector2x2, QuantizedSimBerIsReasonable) {
  // The 2x2 quantized datapath at 10 dB: BER well below coin flip, above
  // the 1-stream 1x2 detector at comparable SNR (spatial interference).
  const auto ber2x2 = mimo::simulateQuantized(mimo2x2Params(), 200000, 31);
  EXPECT_LT(ber2x2.bitErrors.estimate(), 0.3);
  EXPECT_GT(ber2x2.bitErrors.estimate(), 1e-4);
  EXPECT_EQ(ber2x2.bitErrors.trials(), 400000u);  // two bits per trial
}

TEST(Detector2x2, QuantizedPermutationInvariant) {
  // Swapping two metric blocks (y_b together with its nt coefficients)
  // must never change the quantized decision.
  const mimo::MlDetector detector(mimo2x2Params());
  util::Xoshiro256 rng(37);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<int> yCells(4);
    std::vector<int> hCells(8);
    for (auto& c : yCells) c = static_cast<int>(rng.nextBounded(6));
    for (auto& c : hCells) c = static_cast<int>(rng.nextBounded(3));
    const int base = detector.detectQuantized(yCells, hCells);
    const auto b1 = rng.nextBounded(4);
    const auto b2 = rng.nextBounded(4);
    std::swap(yCells[b1], yCells[b2]);
    std::swap(hCells[2 * b1], hCells[2 * b2]);
    std::swap(hCells[2 * b1 + 1], hCells[2 * b2 + 1]);
    EXPECT_EQ(detector.detectQuantized(yCells, hCells), base) << trial;
  }
}

TEST(Detector, RejectsParametersItsArraysCannotHold) {
  mimo::MimoParams p = mimo::mimo1x2Params();
  p.nr = mimo::MlDetector::kMaxBlocks + 1;  // 17
  EXPECT_THROW(mimo::MlDetector{p}, std::invalid_argument);
  p.nr = 0;
  EXPECT_THROW(mimo::MlDetector{p}, std::invalid_argument);
  p = mimo::mimo1x2Params();
  p.nt = 0;
  EXPECT_THROW(mimo::MlDetector{p}, std::invalid_argument);
  p.nt = 12;  // 2^12 * 3^12 * 6 table entries
  EXPECT_THROW(mimo::MlDetector{p}, std::invalid_argument);
  p.nt = 1;
  p.nr = mimo::MlDetector::kMaxBlocks;
  EXPECT_NO_THROW(mimo::MlDetector{p});
  EXPECT_NO_THROW(mimo::MlDetector{mimo::mimo1x2Params()});
  EXPECT_NO_THROW(mimo::MlDetector{mimo::mimo1x4Params()});
  EXPECT_NO_THROW(mimo::MlDetector{mimo2x2Params()});
}

/// The best metric is shared by two hypotheses: the decision is a tie.
bool isTie(const mimo::MlDetector& detector, const std::vector<int>& yCells,
           const std::vector<int>& hCells) {
  const mimo::MimoParams& p = detector.params();
  const auto nt = static_cast<std::size_t>(p.nt);
  std::vector<std::vector<int>> tuples;
  for (std::size_t b = 0; b < yCells.size(); ++b) {
    std::vector<int> tuple(hCells.begin() + static_cast<std::ptrdiff_t>(b * nt),
                           hCells.begin() +
                               static_cast<std::ptrdiff_t>((b + 1) * nt));
    tuple.push_back(yCells[b]);
    tuples.push_back(std::move(tuple));
  }
  std::sort(tuples.begin(), tuples.end());
  std::vector<double> metrics;
  std::vector<double> hv(nt);
  for (int s = 0; s < p.numHypotheses(); ++s) {
    double metric = 0.0;
    for (const auto& tuple : tuples) {
      for (std::size_t k = 0; k < nt; ++k) {
        hv[k] = detector.hQuantizer().value(tuple[k]);
      }
      metric += test::legacyBlockResidual(
          detector.yQuantizer().value(tuple.back()), hv.data(), p.nt, s);
    }
    metrics.push_back(metric);
  }
  const double best = *std::min_element(metrics.begin(), metrics.end());
  return std::count(metrics.begin(), metrics.end(), best) > 1;
}

TEST(Detector, TableDecisionMatchesTheVerbatimOneExhaustively) {
  // Test-sized 1x2, 1x4 and 2x2 detectors: every (h, y) cell tuple.
  mimo::MimoParams p12;
  p12.nr = 2;
  p12.hLevels = 2;
  p12.hRange = 1.2;
  p12.yLevels = 3;
  p12.yRange = 1.8;
  mimo::MimoParams p14 = p12;
  p14.nr = 4;
  p14.yLevels = 2;
  mimo::MimoParams p22 = p12;
  p22.nt = 2;
  for (const mimo::MimoParams& p : {p12, p14, p22}) {
    SCOPED_TRACE(std::to_string(p.nt) + "x" + std::to_string(p.nr));
    const mimo::MlDetector detector(p);
    const auto blocks = static_cast<std::size_t>(p.numBlocks());
    const auto nt = static_cast<std::size_t>(p.nt);
    std::vector<int> yCells(blocks, 0);
    std::vector<int> hCells(blocks * nt, 0);
    std::size_t tuples = 0;
    std::size_t ties = 0;
    std::size_t ones = 0;
    bool more = true;
    while (more) {
      const int want = test::legacyDetectQuantized(detector, yCells, hCells);
      ASSERT_EQ(detector.detectQuantized(yCells, hCells), want) << tuples;
      ++tuples;
      ties += isTie(detector, yCells, hCells) ? 1 : 0;
      ones += want != 0 ? 1 : 0;
      // Next tuple: an odometer over every h cell, then every y cell.
      more = false;
      for (int& c : hCells) {
        if (++c < p.hLevels) {
          more = true;
          break;
        }
        c = 0;
      }
      if (more) continue;
      for (int& c : yCells) {
        if (++c < p.yLevels) {
          more = true;
          break;
        }
        c = 0;
      }
    }
    std::size_t expected = 1;
    for (std::size_t b = 0; b < blocks; ++b) {
      for (std::size_t k = 0; k < nt; ++k) {
        expected *= static_cast<std::size_t>(p.hLevels);
      }
      expected *= static_cast<std::size_t>(p.yLevels);
    }
    EXPECT_EQ(tuples, expected);
    EXPECT_GT(ties, 0u);  // the tie-break is exercised
    EXPECT_GT(ones, 0u);  // and both kinds of decision occur
  }
}

TEST(DetectorSim, DeterministicPerSeed) {
  const auto a = mimo::simulateQuantized(mimo::mimo1x2Params(), 20000, 21);
  const auto b = mimo::simulateQuantized(mimo::mimo1x2Params(), 20000, 21);
  EXPECT_EQ(a.bitErrors.successes(), b.bitErrors.successes());
}

}  // namespace
}  // namespace mimostat
