// DTMC state representation.
//
// A state is a full assignment of values to the model's state variables
// (paper §IV-A-1). Models read states as flat int32 vectors; a VarLayout
// packs a state into a single uint64 key, the one form successor sinks,
// explored and built state tables keep. A layout wider than 64 bits cannot
// be constructed, so every model that has a layout packs.
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
  friend bool operator==(const VarSpec&, const VarSpec&) = default;
};

/// Bit-packing layout derived from a variable list. Packing is
/// lexicographic (variable 0 in the high bits): for two states of this
/// layout, pack(a) < pack(b) exactly when a < b.
class VarLayout {
 public:
  VarLayout() = default;
  /// Throws std::invalid_argument when the variables need more than 64
  /// bits (the message names the count).
  explicit VarLayout(const std::vector<VarSpec>& vars);

  [[nodiscard]] int totalBits() const { return totalBits_; }
  [[nodiscard]] std::size_t numVars() const { return vars_.size(); }
  [[nodiscard]] const std::vector<VarSpec>& vars() const { return vars_; }

  /// Index of a variable by name; asserts on unknown names.
  [[nodiscard]] std::size_t indexOf(const std::string& name) const;
  /// Index of a variable by name, or npos when absent.
  [[nodiscard]] std::size_t tryIndexOf(const std::string& name) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The key of `s` (a state of this layout).
  [[nodiscard]] std::uint64_t pack(const State& s) const {
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
    out.resize(fields_.size());
    std::int32_t* value = out.data();
    for (const Field& f : fields_) *value++ = f.decode(packed);
  }
  /// Value of variable `var` in a packed state, without decoding the rest.
  [[nodiscard]] std::int32_t field(std::uint64_t packed,
                                   std::size_t var) const {
    return fields_[var].decode(packed);
  }
  /// Overwrite variable `var` of a packed state with `value` (in range).
  void setField(std::uint64_t& packed, std::size_t var,
                std::int32_t value) const {
    const Field& f = fields_[var];
    assert(value >= vars_[var].lo && value <= vars_[var].hi);
    packed = (packed & ~(f.mask << f.shift)) |
             (static_cast<std::uint64_t>(static_cast<std::int64_t>(value) -
                                         f.lo)
              << f.shift);
  }

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

}  // namespace mimostat::dtmc
