// Generic symmetry reduction (paper §IV-B, citing Kwiatkowska/Norman/Parker
// CAV'06): when a model contains k interchangeable blocks of variables —
// identically distributed and entering labels/rewards/guards only through
// symmetric functions — the block-permutation group partitions the state
// space into orbits. Picking the lexicographically sorted representative of
// each orbit yields the quotient.
//
// SymmetryReducedModel wraps any dtmc::Model with a block structure and
// canonicalises initial states and transition targets on the fly, so the
// explicit builder directly explores the quotient. Targets are
// canonicalised as packed keys: the inner model adds its successors
// straight into the caller's sink, and canonicalKey rewrites each appended
// key in place, reading the block fields and sorting the block tuples in
// fixed-size stack arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dtmc/model.hpp"

namespace mimostat::lump {

/// Block structure: blocks[b] lists the variable indices of block b. All
/// blocks must have the same arity; variables not listed are asymmetric
/// (global) variables and are left untouched.
using BlockStructure = std::vector<std::vector<std::size_t>>;

class SymmetryReducedModel : public dtmc::Model {
 public:
  /// Most variables all blocks together may list (canonicalKey's stack
  /// arrays hold one value each).
  static constexpr std::size_t kMaxBlockVars = 64;

  /// @param inner  the full model (must outlive this wrapper)
  /// @param blocks interchangeable variable blocks
  /// Throws std::invalid_argument when `blocks` is empty, a block is empty
  /// or differs from the first in arity, an index is not a variable of
  /// `inner` or appears twice, or the blocks list more than kMaxBlockVars
  /// variables; and when the inner layout needs more than 64 bits.
  SymmetryReducedModel(const dtmc::Model& inner, BlockStructure blocks);

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override;
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override;
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override;
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override;
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override;

  /// Canonical (sorted-block) representative of a state's orbit.
  [[nodiscard]] dtmc::State canonicalize(const dtmc::State& s) const;
  /// canonicalize() on a key of the inner model's layout.
  [[nodiscard]] std::uint64_t canonicalKey(std::uint64_t key) const;

  /// Spot-check that the inner model is actually symmetric: for `samples`
  /// random reachable-ish states, every block permutation must preserve the
  /// default reward, the given atoms, and the successor distribution up to
  /// canonicalisation. Returns false on the first violation.
  [[nodiscard]] bool verifySymmetry(const std::vector<std::string>& atoms,
                                    int samples, std::uint64_t seed) const;

 private:
  const dtmc::Model& inner_;
  BlockStructure blocks_;
  dtmc::VarLayout layout_;
};

}  // namespace mimostat::lump
