#include "dtmc/state.hpp"

#include <bit>
#include <stdexcept>

namespace mimostat::dtmc {

namespace {
int bitsFor(std::int64_t rangeSize) {
  // Number of bits needed to represent values 0 .. rangeSize-1.
  if (rangeSize <= 1) return 0;
  return 64 - std::countl_zero(static_cast<std::uint64_t>(rangeSize - 1));
}
}  // namespace

VarLayout::VarLayout(const std::vector<VarSpec>& vars) : vars_(vars) {
  std::vector<int> bitWidth;
  bitWidth.reserve(vars_.size());
  for (const auto& v : vars_) {
    assert(v.hi >= v.lo);
    bitWidth.push_back(bitsFor(v.rangeSize()));
    totalBits_ += bitWidth.back();
  }
  if (totalBits_ > 64) {
    throw std::invalid_argument(
        "VarLayout: the state variables need " + std::to_string(totalBits_) +
        " bits; a packed state key holds at most 64");
  }
  // Lexicographic packing: variable 0 takes the most significant bits, so
  // comparing packed keys as integers orders states exactly as State's
  // operator< does (each field is a monotone offset from its lower bound).
  // A 0-bit field reads bit 0 through an empty mask: its offset stays below
  // 64 even when the fields before it fill the whole word.
  int offset = totalBits_;
  fields_.reserve(vars_.size());
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const int width = bitWidth[i];
    offset -= width;
    fields_.push_back({width == 64 ? ~0ULL : (1ULL << width) - 1, vars_[i].lo,
                       width == 0 ? 0 : offset});
  }
}

std::size_t VarLayout::indexOf(const std::string& name) const {
  const std::size_t idx = tryIndexOf(name);
  assert(idx != npos && "unknown state variable");
  return idx;
}

std::size_t VarLayout::tryIndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].name == name) return i;
  }
  return npos;
}

State VarLayout::unpack(std::uint64_t packed) const {
  State s;
  unpackInto(packed, s);
  return s;
}

}  // namespace mimostat::dtmc
