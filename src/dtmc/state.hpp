// DTMC state representation.
//
// A state is a full assignment of values to the model's state variables
// (paper §IV-A-1). We store it as a flat int32 vector; a VarLayout can pack
// a state into a single uint64 for memory-lean reachability counting of the
// paper's huge "original" models.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace mimostat::dtmc {

using State = std::vector<std::int32_t>;

/// Declaration of one state variable: name plus inclusive integer range.
struct VarSpec {
  std::string name;
  std::int32_t lo = 0;
  std::int32_t hi = 1;

  [[nodiscard]] std::int64_t rangeSize() const {
    return static_cast<std::int64_t>(hi) - lo + 1;
  }
};

/// Bit-packing layout derived from a variable list. Supports packing states
/// whose total width fits in 64 bits; wider models must use the vector form.
/// Packing is lexicographic (variable 0 in the high bits): for two states of
/// this layout, pack(a) < pack(b) exactly when a < b.
class VarLayout {
 public:
  VarLayout() = default;
  explicit VarLayout(const std::vector<VarSpec>& vars);

  [[nodiscard]] bool fitsInU64() const { return totalBits_ <= 64; }
  [[nodiscard]] int totalBits() const { return totalBits_; }
  [[nodiscard]] std::size_t numVars() const { return vars_.size(); }
  [[nodiscard]] const std::vector<VarSpec>& vars() const { return vars_; }

  /// Index of a variable by name; asserts on unknown names.
  [[nodiscard]] std::size_t indexOf(const std::string& name) const;
  /// Index of a variable by name, or npos when absent.
  [[nodiscard]] std::size_t tryIndexOf(const std::string& name) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  [[nodiscard]] std::uint64_t pack(const State& s) const;
  [[nodiscard]] State unpack(std::uint64_t packed) const;

  /// Log2-style upper bound on the number of syntactically possible states
  /// (product of variable ranges), saturating at ~1e18.
  [[nodiscard]] double potentialStateCount() const;

 private:
  std::vector<VarSpec> vars_;
  std::vector<int> bitWidth_;
  std::vector<int> bitOffset_;
  int totalBits_ = 0;
};

/// Render a state as "var=value, ..." for diagnostics.
[[nodiscard]] std::string formatState(const VarLayout& layout, const State& s);

}  // namespace mimostat::dtmc
