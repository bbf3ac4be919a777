// Explicit-state DTMC: the transition matrix as an owned la::CsrMatrix
// (blocked layout + stable transpose) plus the decoded state table, initial
// distribution, and the model-facing atom/reward evaluation hooks.
// Products with the matrix go through la::spmm on matrix().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dtmc/model.hpp"
#include "dtmc/state.hpp"
#include "la/bit_vector.hpp"
#include "la/csr_matrix.hpp"

namespace mimostat::dtmc {

class ExplicitDtmc {
 public:
  /// Number of states.
  [[nodiscard]] std::uint32_t numStates() const { return matrix_.numRows(); }
  /// Number of nonzero transitions.
  [[nodiscard]] std::uint64_t numTransitions() const {
    return matrix_.numNonZeros();
  }

  /// The transition matrix (CSR with block table and stable transpose).
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

  /// Decoded state table (index -> variable assignment).
  [[nodiscard]] const std::vector<State>& states() const { return states_; }
  [[nodiscard]] const State& state(std::uint32_t idx) const {
    return states_[idx];
  }

  /// Value of variable `varIdx` in state `stateIdx`.
  [[nodiscard]] std::int32_t varValue(std::uint32_t stateIdx,
                                      std::size_t varIdx) const {
    return states_[stateIdx][varIdx];
  }

  /// Per-state truth set of an atomic proposition (packed, one bit per
  /// state), evaluated through the source model's atom() hook.
  [[nodiscard]] la::BitVector evalAtom(const Model& model,
                                       std::string_view name) const;

  /// Per-state reward vector from the source model.
  [[nodiscard]] std::vector<double> evalReward(const Model& model,
                                               std::string_view name) const;

  /// Verify every row sums to 1 within `tol`; returns the worst deviation.
  [[nodiscard]] double maxRowDeviation() const;

  // --- construction (used by Builder) ---
  struct Raw {
    std::vector<std::uint64_t> rowPtr;
    std::vector<std::uint32_t> col;
    std::vector<double> val;
    std::vector<double> initial;
    std::vector<State> states;
    VarLayout layout;
  };
  /// Takes ownership; the matrix keeps both CSR orientations resident.
  static ExplicitDtmc fromRaw(Raw raw);

 private:
  la::CsrMatrix matrix_;
  std::vector<double> initial_;
  std::vector<State> states_;
  VarLayout layout_;
};

}  // namespace mimostat::dtmc
