#include "la/bit_vector.hpp"

#include <cassert>

namespace mimostat::la {

BitVector::BitVector(std::size_t numBits, bool value)
    : numBits_(numBits),
      words_((numBits + kWordBits - 1) / kWordBits,
             value ? ~Word{0} : Word{0}) {
  if (value) maskTail();
}

void BitVector::maskTail() {
  const std::size_t tail = numBits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << tail) - 1;
  }
}

void BitVector::setAll() {
  for (Word& w : words_) w = ~Word{0};
  maskTail();
}

BitVector& BitVector::operator&=(const BitVector& other) {
  assert(numBits_ == other.numBits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  assert(numBits_ == other.numBits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  return *this;
}

BitVector& BitVector::operator-=(const BitVector& other) {
  assert(numBits_ == other.numBits_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
  return *this;
}

BitVector BitVector::operator~() const {
  BitVector result(*this);
  for (Word& w : result.words_) w = ~w;
  result.maskTail();
  return result;
}

std::size_t BitVector::count() const {
  std::size_t total = 0;
  for (const Word w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool BitVector::empty() const {
  for (const Word w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool BitVector::full() const { return count() == numBits_; }

}  // namespace mimostat::la
