// Probabilistic bisimulation minimisation by signature refinement.
//
// Implements the partition-refinement view of the Strong Lumping Theorem
// (Derisavi, Hermanns & Sanders; cited as [17] in the paper): start from an
// initial partition that separates states with different labels/rewards,
// then repeatedly split blocks whose states have different probability
// signatures (block -> summed probability maps) until a fixpoint. The final
// partition is the coarsest lumpable refinement of the initial one, and the
// quotient DTMC is a probabilistic bisimulation of the original with
// respect to every property definable over the initial partition's keys.
#pragma once

#include <cstdint>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/bit_vector.hpp"
#include "la/exec.hpp"

namespace mimostat::lump {

struct Partition {
  /// Block id per state.
  std::vector<std::uint32_t> blockOf;
  std::uint32_t numBlocks = 0;
};

struct LumpResult {
  Partition partition;
  dtmc::ExplicitDtmc quotient;
  /// stateOf[block] = representative original state index.
  std::vector<std::uint32_t> representative;
  /// Signature rounds run, the last one (which adds no block) included.
  std::uint32_t refinementRounds = 0;
};

/// Initial-partition keys: states with different keys may never share a
/// block. Typical key: (reward value, relevant label bits).
using InitialKeys = std::vector<std::uint64_t>;

/// Coarsest lumping quotient respecting the initial keys. Transition masses
/// are bucketed at 1e-12 when hashing signatures (floating-point noise must
/// not split equal blocks). Refinement runs until a round adds no block;
/// every other round adds at least one, so it ends within numStates rounds
/// on a stable partition.
/// The quotient's state table holds the representative original states (in
/// the original table's form: packed keys stay packed), and its VarLayout
/// is inherited — so pCTL variable comparisons keep working on the quotient
/// as long as the compared variables are constant within blocks (true
/// whenever they are part of the initial keys).
/// `runner` computes each round's signatures in parallel; block ids are
/// still assigned in state order, so every output is bitwise the same with
/// or without it.
[[nodiscard]] LumpResult lump(const dtmc::ExplicitDtmc& dtmc,
                              const InitialKeys& initialKeys,
                              const la::TaskRunner& runner = {});

/// Initial keys from an evaluation plan's needs: any number of packed masks
/// (one bit per state each) and any number of reward vectors (bucketed at
/// 1e-12, as lump() buckets transition masses). States agreeing on every
/// mask bit and every bucketed reward share a key; masks/rewards the plan
/// does not need are simply not passed and never block merging (the
/// reduce:: plan-aware partition).
/// Computed over la::runStateRanges on `runner`; the same keys without it.
[[nodiscard]] InitialKeys keysFromMasksAndRewards(
    std::size_t numStates, const std::vector<const la::BitVector*>& masks,
    const std::vector<const std::vector<double>*>& rewards,
    const la::TaskRunner& runner = {});

}  // namespace mimostat::lump
