// DTMC state representation.
//
// A state is a full assignment of values to the model's state variables
// (paper §IV-A-1). Models exchange states as flat int32 vectors; a VarLayout
// packs a state into a single uint64, the form explored and built state
// tables keep whenever the layout fits 64 bits.
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

  /// The key of `s` (a state of this layout; fitsInU64()).
  [[nodiscard]] std::uint64_t pack(const State& s) const {
    assert(fitsInU64());
    assert(s.size() == fields_.size());
    std::uint64_t packed = 0;
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      assert(s[i] >= vars_[i].lo && s[i] <= vars_[i].hi);
      // In 64 bits, as decode: a full-range int32 offset exceeds INT32_MAX.
      const auto rel = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(s[i]) - fields_[i].lo);
      packed |= rel << fields_[i].shift;
    }
    return packed;
  }
  [[nodiscard]] State unpack(std::uint64_t packed) const;
  /// unpack() into `out` (resized to numVars()), reusing its storage.
  void unpackInto(std::uint64_t packed, State& out) const {
    assert(fitsInU64());
    out.resize(fields_.size());
    std::int32_t* value = out.data();
    for (const Field& f : fields_) *value++ = f.decode(packed);
  }
  /// Value of variable `var` in a packed state, without decoding the rest.
  [[nodiscard]] std::int32_t field(std::uint64_t packed,
                                   std::size_t var) const {
    return fields_[var].decode(packed);
  }

  /// Log2-style upper bound on the number of syntactically possible states
  /// (product of variable ranges), saturating at ~1e18.
  [[nodiscard]] double potentialStateCount() const;

 private:
  std::vector<VarSpec> vars_;
  /// One packed variable, kept in one contiguous table so decoding a whole
  /// state walks 16 bytes a variable.
  struct Field {
    std::uint64_t mask;  ///< as many low bits set as the field is wide
    std::int32_t lo;
    int shift;
    [[nodiscard]] std::int32_t decode(std::uint64_t packed) const {
      // In 64 bits: a full-range int32 field's offset exceeds INT32_MAX.
      return static_cast<std::int32_t>(
          lo + static_cast<std::int64_t>((packed >> shift) & mask));
    }
  };
  std::vector<Field> fields_;
  int totalBits_ = 0;
};

/// Render a state as "var=value, ..." for diagnostics.
[[nodiscard]] std::string formatState(const VarLayout& layout, const State& s);

}  // namespace mimostat::dtmc
