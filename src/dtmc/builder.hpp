// Explicit-state reachability. dtmc::explore is the library's one BFS: level
// by level (the level count is PRISM's "reachability iterations", RI, of
// the paper's Tables III-V), over packed u64 state keys, normalizing and
// digesting each row as it is computed. One pass yields the engine's cache key
// and, optionally, the CSR buildFromExploration assembles without a second
// BFS. buildExplicit, countReachable and dtmc::modelSignature wrap it.
//
// Each chunk of rows owns one dtmc::Successors sink, which packs every
// target into its u64 key as the model adds it, so no successor owns heap
// memory; a row is normalized in place in the sink and copied into the
// chunk's entries.
//
// Given a task runner, explore (and buildExplicit) computes each window of
// a level's rows on it — the model's transitions() into the chunk's sink,
// normalizing, each row's digest (its length, target keys and probability
// bits) — and numbers the window's new states on it too, through
// la::KeyNumbering: each chunk looks its targets up in the sharded state
// index and dedups the ones it missed, then one task per shard claims them
// in chunk order. The ordered pass on the calling thread gives each first
// claim the next number and folds one digest per row into the hash, with no
// hashing or probing; then the shards' tasks publish the numbers while the
// chunks' tasks copy their rows into the CSR at prefix-summed offsets.
// Every output is bitwise the same with or without a runner, at any pool
// size; without one the same steps run inline. Model methods must then be
// safe to call concurrently (see dtmc/model.hpp).
//
// dtmc::revalue is explore's shortcut for a model whose structure is known:
// given the Skeleton of an earlier exploration (the engine keeps one per
// Model::structureFingerprint), it computes each skeleton state's row on
// the runner, checks its length and target keys against the skeleton's
// row and writes the values; then it folds the hash exactly as explore's
// ordered pass would. Its result is bitwise the Exploration explore would
// return, sharing the skeleton's arrays; any difference returns nullopt,
// and the caller explores.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "la/csr_matrix.hpp"
#include "la/exec.hpp"

namespace mimostat::dtmc {

struct BuildOptions {
  /// Abort when the reachable set exceeds this size.
  std::uint64_t maxStates = 20'000'000;
  /// Drop transitions with probability below this and renormalize
  /// (PRISM-style 1e-15 discard when set; 0 disables). A floor that would
  /// empty a row makes the build throw std::invalid_argument.
  double probFloor = 0.0;
};

struct BuildResult {
  ExplicitDtmc dtmc;
  /// BFS depth at which the reachable set stopped growing (PRISM's RI).
  std::uint32_t reachabilityIterations = 0;
  /// Wall-clock seconds spent building.
  double buildSeconds = 0.0;
};

struct ExploreOptions {
  /// Stop (Exploration::exact = false) past this many discovered states.
  std::uint64_t maxStates = 20'000'000;
  /// As BuildOptions::probFloor; applied before rows are hashed or kept.
  double probFloor = 0.0;
  /// Keep the CSR for buildFromExploration; off = hash and count only.
  bool keepMatrix = true;
};

struct Exploration {
  /// Hash of the layout, state table, initial states and normalized rows;
  /// deterministic across runs and thread counts. A truncated exploration
  /// folds its cap in, so it never aliases an exact one.
  std::uint64_t hash = 0;
  /// The whole reachable set was covered.
  bool exact = false;
  std::uint64_t states = 0;        ///< discovered (reachable when exact)
  std::uint64_t transitions = 0;   ///< normalized nonzeros emitted
  std::uint32_t reachabilityIterations = 0;  ///< BFS levels (RI when exact)
  double worstMassDeviation = 0.0;  ///< max |row mass - 1| before normalizing
  double seconds = 0.0;
  /// keepMatrix and exact only: CSR, initial distribution and layout, plus
  /// the state table as packed keys in raw.keys, which a build keeps. Only
  /// val and initial once `skeleton` is set.
  ExplicitDtmc::Raw raw;
  /// The row pointers, columns, state table and layout the values sit on,
  /// when set: by revalue (the skeleton it was given), or by a caller that
  /// moved them out of `raw` (ExplicitDtmc::detachSkeleton) to share them.
  /// buildFromExploration builds on it.
  Skeleton skeleton;
};

/// Explore the reachable state space of `model`. Never throws on large
/// models: past options.maxStates it stops with exact = false. Throws
/// std::invalid_argument when the model's layout needs more than 64 bits.
/// When transitions() throws (or options.probFloor empties a row), the
/// exception of the lowest-numbered failing state the BFS reaches
/// propagates, with or without `runner`.
[[nodiscard]] Exploration explore(const Model& model,
                                  const ExploreOptions& options = {},
                                  const la::TaskRunner& runner = {});

/// The exploration explore(model, options, runner) returns, computed on the
/// structure of `skeleton` (detached from an exact, matrix-keeping
/// exploration) instead of a BFS, with `skeleton` set to it; nullopt, after
/// at most one transitions() call per skeleton state, unless keepMatrix,
/// the skeleton has at most maxStates states and the model's layout,
/// initial states and every normalized row's length and target keys match
/// it. A throwing row also returns nullopt (explore then decides what to
/// throw). Traced as "dtmc.revalue".
[[nodiscard]] std::optional<Exploration> revalue(
    const Model& model, const Skeleton& skeleton,
    const ExploreOptions& options = {}, const la::TaskRunner& runner = {});

/// Assemble the explicit DTMC from a matrix-keeping exploration, without
/// exploring again (buildSeconds = the exploration's time). Throws what
/// buildExplicit throws (no initial states, more than options.maxStates
/// states or a truncated exploration), std::invalid_argument without a
/// kept matrix.
[[nodiscard]] BuildResult buildFromExploration(Exploration exploration,
                                               const BuildOptions& options);

/// Build the reachable explicit DTMC for a model (explore, then assemble).
/// Throws std::runtime_error when maxStates is exceeded.
[[nodiscard]] BuildResult buildExplicit(const Model& model,
                                        const BuildOptions& options = {},
                                        const la::TaskRunner& runner = {});

struct CountResult {
  std::uint64_t numStates = 0;
  std::uint64_t numTransitions = 0;
  std::uint32_t reachabilityIterations = 0;
  double buildSeconds = 0.0;
};

/// Count reachable states without materializing the matrix (the paper's
/// original-model columns). Throws std::runtime_error past maxStates.
[[nodiscard]] CountResult countReachable(const Model& model,
                                         std::uint64_t maxStates = 200'000'000);

}  // namespace mimostat::dtmc
