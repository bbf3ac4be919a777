#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "util/fixed_point.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mimostat {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  util::Xoshiro256 a(42);
  util::Xoshiro256 b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Xoshiro256 a(1);
  util::Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.nextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBoundedRespectsBound) {
  util::Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng.nextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
  EXPECT_EQ(rng.nextBounded(1), 0u);
  EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Rng, GaussianMoments) {
  util::Xoshiro256 rng(1234);
  const int n = 200000;
  double sum = 0.0;
  double sumSq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.nextGaussian();
    sum += x;
    sumSq += x * x;
  }
  const double mean = sum / n;
  const double var = sumSq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t state = 0;
  const std::uint64_t a = util::splitmix64(state);
  const std::uint64_t b = util::splitmix64(state);
  EXPECT_NE(a, b);
}

TEST(Hash, Fnv1aDependsOnContent) {
  const char a[] = "abc";
  const char b[] = "abd";
  EXPECT_NE(util::fnv1a(a, 3), util::fnv1a(b, 3));
}

TEST(Hash, Mix64IsBijectiveOnSamples) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    outputs.insert(util::mix64(i));
  }
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(FixedPoint, ClampI32) {
  EXPECT_EQ(util::clampI32(5, 0, 10), 5);
  EXPECT_EQ(util::clampI32(-1, 0, 10), 0);
  EXPECT_EQ(util::clampI32(11, 0, 10), 10);
  EXPECT_EQ(util::clampI32(1LL << 40, 0, 10), 10);
}

TEST(FixedPoint, QuantizeMagnitude) {
  EXPECT_EQ(util::quantizeMagnitude(0.25, 1.0, 3), 0);
  EXPECT_EQ(util::quantizeMagnitude(1.4, 1.0, 3), 1);
  EXPECT_EQ(util::quantizeMagnitude(2.6, 1.0, 3), 3);
  EXPECT_EQ(util::quantizeMagnitude(9.0, 1.0, 3), 3);
  EXPECT_EQ(util::quantizeMagnitude(1.0, 2.0, 10), 2);
}

TEST(Timer, MeasuresElapsedTime) {
  util::Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(watch.elapsedSeconds(), 5e-3);
  watch.reset();
  EXPECT_LT(watch.elapsedSeconds(), 5e-3);
}

}  // namespace
}  // namespace mimostat
