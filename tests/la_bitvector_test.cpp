// la::BitVector — the packed truth-mask representation. Block-boundary
// sizes (0/1/63/64/65), bulk-op identities against a byte-vector reference,
// ascending forEachSetBit order, the tail invariant behind operator== and
// full(), and the 8x approxBytes accounting the plan/cache layers report.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "la/bit_vector.hpp"
#include "test_models.hpp"
#include "util/rng.hpp"

namespace mimostat {
namespace {

// Pseudo-random byte mask with roughly `density` of bits set.
std::vector<std::uint8_t> randomBytes(std::size_t n, std::uint64_t seed,
                                      std::uint32_t density = 2) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = rng.nextBounded(density + 1) == 0 ? 1 : 0;
  }
  return bytes;
}

// The block-boundary sizes every structural test sweeps: empty, a single
// bit, one word minus one, exactly one word, one word plus one.
const std::size_t kSizes[] = {0, 1, 63, 64, 65, 130, 1000};

TEST(BitVector, ConstructionAndSize) {
  for (const std::size_t n : kSizes) {
    const la::BitVector zeros(n);
    EXPECT_EQ(zeros.size(), n);
    EXPECT_EQ(zeros.count(), 0u);
    EXPECT_TRUE(zeros.empty());
    EXPECT_EQ(zeros.full(), n == 0);
    EXPECT_EQ(zeros.numWords(), (n + 63) / 64);

    const la::BitVector ones(n, true);
    EXPECT_EQ(ones.count(), n);
    EXPECT_TRUE(ones.full());
    EXPECT_EQ(ones.empty(), n == 0);
  }
}

TEST(BitVector, SetGetAtWordBoundaries) {
  la::BitVector v(130);
  for (const std::size_t i : {std::size_t{0}, std::size_t{63},
                              std::size_t{64}, std::size_t{127},
                              std::size_t{129}}) {
    EXPECT_FALSE(v.get(i));
    v.set(i);
    EXPECT_TRUE(v.get(i)) << "bit " << i;
  }
  EXPECT_EQ(v.count(), 5u);
  v.set(64, false);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.count(), 4u);
}

TEST(BitVector, BulkOpsMatchByteReference) {
  for (const std::size_t n : kSizes) {
    const auto aBytes = randomBytes(n, 11 + n);
    const auto bBytes = randomBytes(n, 77 + n);
    const auto a = test::fromBytes(aBytes);
    const auto b = test::fromBytes(bBytes);

    std::vector<std::uint8_t> andRef(n);
    std::vector<std::uint8_t> orRef(n);
    std::vector<std::uint8_t> diffRef(n);
    std::vector<std::uint8_t> notRef(n);
    for (std::size_t i = 0; i < n; ++i) {
      andRef[i] = aBytes[i] & bBytes[i];
      orRef[i] = aBytes[i] | bBytes[i];
      diffRef[i] = aBytes[i] & static_cast<std::uint8_t>(1 - bBytes[i]);
      notRef[i] = 1 - aBytes[i];
    }

    la::BitVector andV = a;
    andV &= b;
    la::BitVector orV = a;
    orV |= b;
    la::BitVector diffV = a;
    diffV -= b;
    EXPECT_EQ(andV, test::fromBytes(andRef)) << "n=" << n;
    EXPECT_EQ(orV, test::fromBytes(orRef)) << "n=" << n;
    EXPECT_EQ(diffV, test::fromBytes(diffRef)) << "n=" << n;
    EXPECT_EQ(~a, test::fromBytes(notRef)) << "n=" << n;
    EXPECT_EQ(test::toBytes(andV), andRef) << "n=" << n;
  }
}

TEST(BitVector, ComplementKeepsTailZero) {
  // ~ sets every word bit; the invariant demands bits past size() stay
  // zero, or count()/full()/operator== would lie on non-multiple-of-64
  // sizes.
  for (const std::size_t n : kSizes) {
    const la::BitVector zeros(n);
    const la::BitVector flipped = ~zeros;
    EXPECT_EQ(flipped.count(), n) << "n=" << n;
    EXPECT_TRUE(flipped.full()) << "n=" << n;
    EXPECT_EQ(flipped, la::BitVector(n, true)) << "n=" << n;
    if (flipped.numWords() > 0 && n % 64 != 0) {
      EXPECT_EQ(flipped.words().back() >> (n % 64), 0u) << "n=" << n;
    }
  }
}

TEST(BitVector, SetAllClearAll) {
  la::BitVector v(65);
  v.setAll();
  EXPECT_TRUE(v.full());
  EXPECT_EQ(v.count(), 65u);
  ASSERT_EQ(v.numWords(), 2u);
  EXPECT_EQ(v.words()[1], 1u);  // tail invariant after setAll
}

TEST(BitVector, EqualityIsSizeAndBits) {
  la::BitVector a(64);
  la::BitVector b(65);
  EXPECT_FALSE(a == b);  // same (empty) prefix, different size
  la::BitVector c(64);
  EXPECT_TRUE(a == c);
  c.set(63);
  EXPECT_FALSE(a == c);
}

TEST(BitVector, ForEachSetBitAscending) {
  for (const std::size_t n : kSizes) {
    const auto bytes = randomBytes(n, 123 + n);
    const auto v = test::fromBytes(bytes);

    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (bytes[i] != 0) expected.push_back(i);
    }
    std::vector<std::size_t> visited;
    v.forEachSetBit([&](std::size_t i) { visited.push_back(i); });
    EXPECT_EQ(visited, expected) << "n=" << n;
  }
}

TEST(BitVector, FromBytesToBytesRoundTrip) {
  for (const std::size_t n : kSizes) {
    const auto bytes = randomBytes(n, 5 + n);
    EXPECT_EQ(test::toBytes(test::fromBytes(bytes)), bytes) << "n=" << n;
  }
  // Any non-zero byte counts as set.
  const std::vector<std::uint8_t> loud = {0, 2, 255, 0, 1};
  const auto v = test::fromBytes(loud);
  EXPECT_EQ(test::toBytes(v), (std::vector<std::uint8_t>{0, 1, 1, 0, 1}));
}

TEST(BitVector, ApproxBytesIsEightfoldSmaller) {
  // The whole point: one bit per state instead of one byte. At n = 4096
  // that is exactly 512 packed bytes vs 4096.
  const std::size_t n = 4096;
  const la::BitVector v(n);
  EXPECT_EQ(v.approxBytes(), n / 8);
  EXPECT_EQ(v.approxBytes() * 8, n);
  // Non-multiples round up to the next word.
  EXPECT_EQ(la::BitVector(65).approxBytes(), 16u);
  EXPECT_EQ(la::BitVector(0).approxBytes(), 0u);
}

TEST(BitVector, WordLayoutContract) {
  // Kernels read membership straight off words(): bit i lives in word
  // i >> 6 at position i & 63.
  la::BitVector v(200);
  v.set(70);
  v.set(199);
  EXPECT_EQ((v.words()[70 >> 6] >> (70 & 63)) & 1u, 1u);
  EXPECT_EQ((v.words()[199 >> 6] >> (199 & 63)) & 1u, 1u);
  EXPECT_EQ((v.words()[0] >> 1) & 1u, 0u);
}

}  // namespace
}  // namespace mimostat
