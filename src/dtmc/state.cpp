#include "dtmc/state.hpp"

#include <bit>
#include <sstream>

namespace mimostat::dtmc {

namespace {
int bitsFor(std::int64_t rangeSize) {
  // Number of bits needed to represent values 0 .. rangeSize-1.
  if (rangeSize <= 1) return 0;
  return 64 - std::countl_zero(static_cast<std::uint64_t>(rangeSize - 1));
}
}  // namespace

VarLayout::VarLayout(const std::vector<VarSpec>& vars) : vars_(vars) {
  bitWidth_.reserve(vars_.size());
  bitOffset_.reserve(vars_.size());
  for (const auto& v : vars_) {
    assert(v.hi >= v.lo);
    bitWidth_.push_back(bitsFor(v.rangeSize()));
    totalBits_ += bitWidth_.back();
  }
  // Lexicographic packing: variable 0 takes the most significant bits, so
  // comparing packed keys as integers orders states exactly as State's
  // operator< does (each field is a monotone offset from its lower bound).
  int offset = totalBits_;
  for (const int width : bitWidth_) {
    offset -= width;
    bitOffset_.push_back(offset);
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

std::uint64_t VarLayout::pack(const State& s) const {
  assert(fitsInU64());
  assert(s.size() == vars_.size());
  std::uint64_t packed = 0;
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    assert(s[i] >= vars_[i].lo && s[i] <= vars_[i].hi);
    const auto rel = static_cast<std::uint64_t>(s[i] - vars_[i].lo);
    packed |= rel << bitOffset_[i];
  }
  return packed;
}

State VarLayout::unpack(std::uint64_t packed) const {
  assert(fitsInU64());
  State s(vars_.size());
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const std::uint64_t mask =
        bitWidth_[i] == 64 ? ~0ULL : ((1ULL << bitWidth_[i]) - 1);
    const auto rel = (packed >> bitOffset_[i]) & mask;
    s[i] = vars_[i].lo + static_cast<std::int32_t>(rel);
  }
  return s;
}

double VarLayout::potentialStateCount() const {
  double product = 1.0;
  for (const auto& v : vars_) {
    product *= static_cast<double>(v.rangeSize());
    if (product > 1e18) return 1e18;
  }
  return product;
}

std::string formatState(const VarLayout& layout, const State& s) {
  std::ostringstream os;
  for (std::size_t i = 0; i < layout.numVars(); ++i) {
    if (i != 0) os << ", ";
    os << layout.vars()[i].name << '=' << s[i];
  }
  return os.str();
}

}  // namespace mimostat::dtmc
