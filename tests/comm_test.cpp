#include <gtest/gtest.h>

#include <cmath>

#include "comm/channel.hpp"
#include "comm/quantizer.hpp"
#include "comm/rayleigh.hpp"
#include "comm/snr.hpp"
#include "util/rng.hpp"

namespace mimostat {
namespace {

TEST(Quantizer, IndexAndValue) {
  const comm::UniformQuantizer q(4, 3.0);  // cells of width 1.5
  EXPECT_EQ(q.index(-10.0), 0);
  EXPECT_EQ(q.index(-2.0), 0);
  EXPECT_EQ(q.index(-1.0), 1);
  EXPECT_EQ(q.index(0.5), 2);
  EXPECT_EQ(q.index(2.0), 3);
  EXPECT_EQ(q.index(10.0), 3);
  EXPECT_NEAR(q.value(0), -2.25, 1e-12);
  EXPECT_NEAR(q.value(1), -0.75, 1e-12);
  EXPECT_NEAR(q.value(2), 0.75, 1e-12);
  EXPECT_NEAR(q.value(3), 2.25, 1e-12);
}

TEST(Quantizer, ThresholdsConsistentWithIndex) {
  const comm::UniformQuantizer q(6, 3.0);
  for (int cell = 0; cell < 6; ++cell) {
    const double lo = q.lowerThreshold(cell);
    const double hi = q.upperThreshold(cell);
    if (!std::isinf(lo)) {
      EXPECT_EQ(q.index(lo + 1e-9), cell);
    }
    if (!std::isinf(hi)) {
      EXPECT_EQ(q.index(hi - 1e-9), cell);
    }
  }
  EXPECT_TRUE(std::isinf(q.lowerThreshold(0)));
  EXPECT_TRUE(std::isinf(q.upperThreshold(5)));
}

TEST(Quantizer, CellProbabilitiesSumToOne) {
  const comm::UniformQuantizer q(5, 2.5);
  for (const double signal : {-2.0, 0.0, 1.3, 7.0}) {
    for (const double sigma : {0.1, 0.8, 3.0}) {
      const auto probs = q.cellProbabilities(signal, sigma);
      double total = 0.0;
      for (const double p : probs) {
        EXPECT_GE(p, 0.0);
        total += p;
      }
      EXPECT_NEAR(total, 1.0, 1e-12) << signal << " " << sigma;
    }
  }
}

TEST(Quantizer, CellProbabilitiesMatchSampling) {
  const comm::UniformQuantizer q(4, 3.0);
  const double signal = 0.7;
  const double sigma = 1.1;
  const auto probs = q.cellProbabilities(signal, sigma);
  util::Xoshiro256 rng(99);
  std::vector<int> counts(4, 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(
        q.index(signal + sigma * rng.nextGaussian()))];
  }
  for (int cell = 0; cell < 4; ++cell) {
    EXPECT_NEAR(static_cast<double>(counts[cell]) / n, probs[cell], 5e-3);
  }
}

TEST(Snr, Conversions) {
  EXPECT_NEAR(comm::snrDbToLinear(0.0), 1.0, 1e-12);
  EXPECT_NEAR(comm::snrDbToLinear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(comm::snrDbToLinear(3.0), 1.995262, 1e-5);
  EXPECT_NEAR(comm::noiseSigma(0.0, 2.0), std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(comm::noiseSigma(10.0, 1.0), std::sqrt(0.1), 1e-12);
  EXPECT_NEAR(comm::noiseSigmaPerDimension(10.0), std::sqrt(0.05), 1e-12);
}

TEST(IsiChannel, PaperLevels) {
  const comm::IsiChannel channel({1.0, 1.0});
  EXPECT_EQ(channel.memory(), 1u);
  EXPECT_EQ(channel.level2(0, 0), -2.0);
  EXPECT_EQ(channel.level2(1, 0), 0.0);
  EXPECT_EQ(channel.level2(0, 1), 0.0);
  EXPECT_EQ(channel.level2(1, 1), 2.0);
  EXPECT_EQ(channel.signalPower(), 2.0);
  EXPECT_EQ(channel.level({1, 0}), 0.0);
}

TEST(IsiChannel, GeneralTaps) {
  const comm::IsiChannel channel({1.0, 0.5, 0.25});
  EXPECT_EQ(channel.memory(), 2u);
  EXPECT_NEAR(channel.level({1, 1, 0}), 1.0 + 0.5 - 0.25, 1e-12);
  EXPECT_NEAR(channel.signalPower(), 1.0 + 0.25 + 0.0625, 1e-12);
}

TEST(DiscreteIsiChannel, DistributionsSumToOne) {
  const comm::IsiChannel isi({1.0, 1.0});
  const comm::UniformQuantizer q(4, 3.0);
  const comm::DiscreteIsiChannel channel(isi, q, 5.0);
  for (int cur = 0; cur < 2; ++cur) {
    for (int prev = 0; prev < 2; ++prev) {
      double total = 0.0;
      for (int cell = 0; cell < 4; ++cell) {
        total += channel.cellProb(cur, prev, cell);
      }
      EXPECT_NEAR(total, 1.0, 1e-12);
    }
  }
}

TEST(DiscreteIsiChannel, SamplesMatchDistribution) {
  const comm::IsiChannel isi({1.0, 1.0});
  const comm::UniformQuantizer q(4, 3.0);
  const comm::DiscreteIsiChannel channel(isi, q, 5.0);
  util::Xoshiro256 rng(7);
  std::vector<int> counts(4, 0);
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(channel.sample(1, 0, rng))];
  }
  for (int cell = 0; cell < 4; ++cell) {
    EXPECT_NEAR(static_cast<double>(counts[cell]) / n,
                channel.cellProb(1, 0, cell), 5e-3);
  }
}

TEST(DiscreteIsiChannel, HigherSnrConcentratesMass) {
  const comm::IsiChannel isi({1.0, 1.0});
  const comm::UniformQuantizer q(4, 3.0);
  const comm::DiscreteIsiChannel low(isi, q, 0.0);
  const comm::DiscreteIsiChannel high(isi, q, 20.0);
  // Signal +2 (bits 1,1) should land in the top cell almost surely at high
  // SNR, and much less so at low SNR.
  EXPECT_GT(high.cellProb(1, 1, 3), 0.99);
  EXPECT_LT(low.cellProb(1, 1, 3), 0.9);
}

TEST(Rayleigh, CellProbabilitiesSumToOneAndSymmetric) {
  const comm::UniformQuantizer q(5, 2.0);
  const comm::RayleighFading fading(q);
  const auto& probs = fading.cellProbabilities();
  double total = 0.0;
  for (const double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(probs[0], probs[4], 1e-12);  // zero-mean symmetry
  EXPECT_NEAR(probs[1], probs[3], 1e-12);
}

TEST(Bpsk, Mapping) {
  EXPECT_EQ(comm::bpsk(0), -1.0);
  EXPECT_EQ(comm::bpsk(1), 1.0);
}

}  // namespace
}  // namespace mimostat
