// Hashing helpers shared by the explicit-state exploration, the model and
// property signatures and the lumping signatures.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace mimostat::util {

/// FNV-1a over an arbitrary byte range.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t size,
                                         std::uint64_t seed = 0xCBF29CE484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// 64-bit finalizer (murmur3 fmix64) — good avalanche for packed keys.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Combine two hashes (boost-style, widened to 64 bits).
[[nodiscard]] constexpr std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 12) + (a >> 4));
}

/// Fold one integer parameter into a running hash.
[[nodiscard]] constexpr std::uint64_t hashCombineInt(std::uint64_t hash,
                                                     std::int64_t value) {
  return hashCombine(hash, mix64(static_cast<std::uint64_t>(value)));
}

/// Fold one double parameter into a running hash by its bit pattern, so
/// values that compare equal but differ in bits (0.0 and -0.0) hash apart.
[[nodiscard]] constexpr std::uint64_t hashCombineDouble(std::uint64_t hash,
                                                        double value) {
  return hashCombine(hash, mix64(std::bit_cast<std::uint64_t>(value)));
}

}  // namespace mimostat::util
