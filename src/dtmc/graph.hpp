// Graph-theoretic analysis of a DTMC's underlying digraph: strongly
// connected components (iterative Tarjan), bottom SCCs and periodicity.
// mc::analyzeStructure turns them into the paper's §III claim that the
// models are finite, irreducible and aperiodic and therefore reach steady
// state.
#pragma once

#include <cstdint>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"

namespace mimostat::dtmc {

struct SccDecomposition {
  /// Component id per state (components are numbered in reverse topological
  /// order: an edge between components always goes from a higher id to a
  /// lower id).
  std::vector<std::uint32_t> componentOf;
  std::uint32_t numComponents = 0;
  /// Component ids with no outgoing edges to other components (closed /
  /// recurrent classes).
  std::vector<std::uint32_t> bottomComponents;
};

[[nodiscard]] SccDecomposition computeSccs(const ExplicitDtmc& dtmc);

/// Period of an irreducible chain: gcd over all edges (u,v) of
/// level[u] + 1 - level[v] where level is any BFS layering. Returns 1 for
/// aperiodic chains. Precondition: chain is irreducible.
[[nodiscard]] std::uint32_t chainPeriod(const ExplicitDtmc& dtmc);

}  // namespace mimostat::dtmc
