// Structural model signatures for build caching.
//
// A signature identifies a dtmc::Model's *transition structure* — the
// explicit DTMC a build would produce: variable layout, state table,
// initial states and normalized rows — by the hash of one dtmc::explore
// pass, so an engine can reuse an already-built ExplicitDtmc for a
// structurally identical model. Models whose builds are identical share a
// signature (a model emitting duplicate targets and one emitting their
// merged sum, a dead-end state and an explicit self-loop). Atoms and
// rewards are deliberately NOT part of the signature: the explicit DTMC
// stores only structure, and label / reward vectors are always re-evaluated
// through the requesting model.
//
// The signature doubles as a capped reachable-state count: when `exact` is
// true, `states` is the reachable set's size. It keeps no matrix.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "dtmc/model.hpp"
#include "la/bit_vector.hpp"

namespace mimostat::dtmc {

struct SignatureOptions {
  /// Stop exploring (exact=false) past this many discovered states.
  std::uint64_t maxStates = 1'000'000;
};

struct ModelSignature {
  /// dtmc::Exploration::hash of the model (probability floor 0).
  std::uint64_t hash = 0;
  /// The exploration covered the entire reachable set.
  bool exact = false;
  /// States discovered (the reachable count when exact).
  std::uint64_t states = 0;
  /// Normalized transitions (the built nonzero count when exact).
  std::uint64_t transitions = 0;
};

/// Deterministic structural signature of a model: dtmc::explore without
/// the matrix. Never throws on large models — the exploration truncates and
/// reports exact=false instead.
[[nodiscard]] ModelSignature modelSignature(const Model& model,
                                            const SignatureOptions& options = {});

/// Order-independent digest over the label masks and reward vectors an
/// evaluation plan needs — the optional second half of a cache key for
/// plan-aware reduction artifacts (the engine's quotient cache). Entries
/// combine an identity hash (the mask's structural formula hash / the reward
/// structure's name) with a content hash (the evaluated bits / values), then
/// XOR into the accumulator, so insertion order never matters; two plans
/// needing the same atoms and rewards digest equal no matter how their
/// properties were listed. An empty digest hashes to 0 (plan needs nothing —
/// every state may merge).
class LabelRewardDigest {
 public:
  /// Mask entry: `formulaHash` identifies the state formula (use
  /// pctl::structuralHash), the BitVector is its evaluated truth set.
  void addMask(std::uint64_t formulaHash, const la::BitVector& mask);
  /// Reward entry: the reward structure's name plus its evaluated vector.
  void addReward(std::string_view name, const std::vector<double>& values);

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::uint32_t entries() const { return entries_; }

 private:
  std::uint64_t hash_ = 0;
  std::uint32_t entries_ = 0;
};

}  // namespace mimostat::dtmc
