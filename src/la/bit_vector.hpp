// Packed bitset over 64-bit words — the truth-mask representation of the
// whole exact stack (atom labels, reachability sets, prob0/prob1, bounded
// frozen masks, interned plan masks).
//
// One bit per state instead of the byte-per-state std::vector<std::uint8_t>
// it replaced: 8x less mask memory and word-parallel bulk ops (one AND/OR
// per 64 states). Layout is fixed — bit i lives in word i/64 at position
// i%64 — so kernels can read membership straight off words() without going
// through get(). Invariant: bits past size() in the last word are always
// zero, which makes operator==, count() and full() plain word scans.
//
// forEachSetBit visits set bits in ascending index order (countr_zero over
// each word), so BFS worklists seeded from a BitVector enqueue states in
// the same ascending order the legacy byte-vector scans produced —
// bit-for-bit identical traversals.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mimostat::la {

class BitVector {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  BitVector() = default;
  explicit BitVector(std::size_t numBits, bool value = false);

  /// Number of bits (states), not words.
  [[nodiscard]] std::size_t size() const { return numBits_; }

  [[nodiscard]] bool get(std::size_t i) const {
    return ((words_[i >> 6] >> (i & 63)) & Word{1}) != 0;
  }

  void set(std::size_t i, bool value = true) {
    const Word bit = Word{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= bit;
    } else {
      words_[i >> 6] &= ~bit;
    }
  }

  void setAll();

  /// Word-parallel intersection/union/difference; operands must match in
  /// size. operator-= is and-not: keep this set's bits not in `other`.
  BitVector& operator&=(const BitVector& other);
  BitVector& operator|=(const BitVector& other);
  BitVector& operator-=(const BitVector& other);
  [[nodiscard]] BitVector operator~() const;

  /// Equal iff same size and same bits (tail invariant makes this a plain
  /// word comparison).
  [[nodiscard]] bool operator==(const BitVector& other) const = default;

  /// Number of set bits (popcount per word).
  [[nodiscard]] std::size_t count() const;
  /// No bit set / every bit set. Both true only for size() == 0.
  [[nodiscard]] bool empty() const;
  [[nodiscard]] bool full() const;

  /// Visit set bits in ascending index order.
  template <typename Fn>
  void forEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word bits = words_[w];
      while (bits != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(bits));
        fn((w << 6) | b);
        bits &= bits - 1;
      }
    }
  }

  /// Raw word access for kernels: bit i of the set is
  /// (words()[i >> 6] >> (i & 63)) & 1. Bits past size() are zero.
  [[nodiscard]] const std::vector<Word>& words() const { return words_; }
  [[nodiscard]] std::size_t numWords() const { return words_.size(); }

  /// Heap footprint, for cache/plan accounting.
  [[nodiscard]] std::uint64_t approxBytes() const {
    return static_cast<std::uint64_t>(words_.size()) * sizeof(Word);
  }

 private:
  /// Re-establish the tail invariant after an op that may set bits past
  /// size() (setAll, operator~).
  void maskTail();

  std::size_t numBits_ = 0;
  std::vector<Word> words_;
};

}  // namespace mimostat::la
