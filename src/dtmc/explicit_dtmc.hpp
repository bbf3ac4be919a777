// Explicit-state DTMC: the transition matrix as an owned la::CsrMatrix
// (blocked layout + stable transpose on first use) plus the state table,
// initial distribution, and the model-facing atom/reward evaluation hooks.
// Products with the matrix go through la::spmm on matrix().
//
// The state table keeps the form dtmc::explore produced it in: one packed
// u64 key per state (8 bytes a state, no per-state heap block from
// exploration to eviction). state(i) decodes a copy; varValue reads one
// field. The state table and the matrix's pattern are shared: DTMCs built
// on one Skeleton (dtmc::revalue) own only their values.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dtmc/model.hpp"
#include "dtmc/state.hpp"
#include "la/bit_vector.hpp"
#include "la/csr_matrix.hpp"
#include "la/exec.hpp"

namespace mimostat::dtmc {

/// An explicit DTMC without its values: the matrix's pattern (row
/// pointers, columns, block table), the state table and the layout that
/// packed it. Copies share the arrays.
struct Skeleton {
  std::shared_ptr<const la::CsrMatrix::Pattern> pattern;
  std::shared_ptr<const std::vector<std::uint64_t>> keys;
  VarLayout layout;

  /// Resident bytes of the pattern and the state table.
  [[nodiscard]] std::uint64_t approxBytes() const {
    return pattern->approxBytes() + keys->size() * sizeof(std::uint64_t);
  }
};

class ExplicitDtmc {
 public:
  /// Number of states.
  [[nodiscard]] std::uint32_t numStates() const { return matrix_.numRows(); }
  /// Number of nonzero transitions.
  [[nodiscard]] std::uint64_t numTransitions() const {
    return matrix_.numNonZeros();
  }

  /// The transition matrix (CSR with block table and lazy transpose).
  [[nodiscard]] const la::CsrMatrix& matrix() const { return matrix_; }

  /// CSR accessors (forwarders into matrix()).
  [[nodiscard]] const std::vector<std::uint64_t>& rowPtr() const {
    return matrix_.rowPtr();
  }
  [[nodiscard]] const std::vector<std::uint32_t>& col() const {
    return matrix_.col();
  }
  [[nodiscard]] const std::vector<double>& val() const {
    return matrix_.val();
  }

  /// Initial distribution over states (sums to 1).
  [[nodiscard]] const std::vector<double>& initialDistribution() const {
    return initial_;
  }

  /// Variable layout of the source model.
  [[nodiscard]] const VarLayout& varLayout() const { return layout_; }

  /// The variable assignment of state `idx`, decoded from its key.
  [[nodiscard]] State state(std::uint32_t idx) const {
    return layout_.unpack((*keys_)[idx]);
  }

  /// Value of variable `varIdx` in state `stateIdx`.
  [[nodiscard]] std::int32_t varValue(std::uint32_t stateIdx,
                                      std::size_t varIdx) const {
    return layout_.field((*keys_)[stateIdx], varIdx);
  }

  /// Resident bytes of the state table.
  [[nodiscard]] std::uint64_t stateTableBytes() const {
    return keys_->size() * sizeof(std::uint64_t);
  }

  /// Per-state truth set of an atomic proposition (packed, one bit per
  /// state), evaluated through the source model's atom() hook — over
  /// la::runStateRanges on `runner`, bit-identical with or without it.
  [[nodiscard]] la::BitVector evalAtom(const Model& model,
                                       std::string_view name,
                                       const la::TaskRunner& runner = {}) const;

  /// Per-state reward vector from the source model (as evalAtom).
  [[nodiscard]] std::vector<double> evalReward(
      const Model& model, std::string_view name,
      const la::TaskRunner& runner = {}) const;

  // --- construction (used by Builder) ---
  struct Raw {
    std::vector<std::uint64_t> rowPtr;
    std::vector<std::uint32_t> col;
    std::vector<double> val;
    std::vector<double> initial;
    /// The state table: one key per row, packed by `layout`.
    std::vector<std::uint64_t> keys;
    VarLayout layout;
  };
  /// Takes ownership; the matrix builds its transpose on first use.
  /// Throws std::invalid_argument when rowPtr is empty, or the initial
  /// distribution or the state table does not have one entry per row.
  static ExplicitDtmc fromRaw(Raw raw);
  /// Move `raw`'s row pointers, columns, state table and layout into a
  /// skeleton (building its block table), leaving its values and initial
  /// distribution. Throws std::invalid_argument when rowPtr is empty.
  static Skeleton detachSkeleton(Raw& raw);
  /// `val` (one value per column entry, asserted) on `skeleton`, whose
  /// arrays it shares. Throws std::invalid_argument when the initial
  /// distribution or the state table does not have one entry per row.
  static ExplicitDtmc fromSkeleton(const Skeleton& skeleton,
                                   std::vector<double> val,
                                   std::vector<double> initial);
  /// Append the keys of states `indices` to `raw`'s table (a quotient keeps
  /// its representatives' keys).
  void copyStatesInto(const std::vector<std::uint32_t>& indices,
                      Raw& raw) const;

 private:
  /// Calls f(index, state) for every state, in order within each range of
  /// la::runStateRanges on `runner`, decoding into one scratch State a range.
  template <class F>
  void forEachState(const la::TaskRunner& runner, const F& f) const {
    la::runStateRanges(runner, numStates(), [&](std::size_t b, std::size_t e) {
      State scratch;
      for (auto i = static_cast<std::uint32_t>(b); i < e; ++i) {
        layout_.unpackInto((*keys_)[i], scratch);
        f(i, scratch);
      }
    });
  }

  la::CsrMatrix matrix_;
  std::vector<double> initial_;
  std::shared_ptr<const std::vector<std::uint64_t>> keys_ =
      std::make_shared<const std::vector<std::uint64_t>>();
  VarLayout layout_;
};

}  // namespace mimostat::dtmc
