// The explicit-state builder as it was before dtmc::explore: a level-ordered
// BFS over heap-allocated State keys in a std::unordered_map, rows kept as a
// vector of per-state transition vectors and assembled into CSR at the end.
// Kept verbatim as the bitwise oracle for dtmc::buildExplicit (state
// numbering, rowPtr/col/val, initial distribution and reachability
// iterations must all match it exactly). It collects each row through a
// packed dtmc::Successors sink and unpacks it, and hands its State table
// to ExplicitDtmc packed.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dtmc/builder.hpp"
#include "legacy_loops.hpp"
#include "test_models.hpp"

namespace mimostat::test {

inline dtmc::BuildResult legacyBuildExplicit(
    const dtmc::Model& model, const dtmc::BuildOptions& options = {}) {
  using dtmc::State;
  const dtmc::VarLayout layout = model.layout();
  std::unordered_map<State, std::uint32_t, StateHash> index;
  std::vector<State> states;
  std::vector<std::vector<Transition>> rows;

  const auto internState = [&](const State& s) -> std::uint32_t {
    auto [it, inserted] =
        index.try_emplace(s, static_cast<std::uint32_t>(states.size()));
    if (inserted) {
      if (states.size() >= options.maxStates) {
        throw std::runtime_error(
            "buildExplicit: reachable state space exceeds maxStates");
      }
      states.push_back(s);
    }
    return it->second;
  };

  const std::vector<State> initial = model.initialStates();
  if (initial.empty()) {
    throw std::runtime_error("buildExplicit: model has no initial states");
  }
  std::vector<std::uint32_t> initialIdx;
  initialIdx.reserve(initial.size());
  for (const auto& s : initial) initialIdx.push_back(internState(s));

  std::uint32_t frontierBegin = 0;
  std::uint32_t reachabilityIterations = 0;
  dtmc::Successors sink(layout);
  std::vector<Transition> scratch;

  while (frontierBegin < states.size()) {
    const auto frontierEnd = static_cast<std::uint32_t>(states.size());
    ++reachabilityIterations;
    for (std::uint32_t s = frontierBegin; s < frontierEnd; ++s) {
      collectTransitions(model, layout, states[s], sink, scratch);
      if (scratch.empty()) scratch.push_back({1.0, states[s]});
      (void)test::normalizeTransitions(scratch, options.probFloor);
      std::vector<Transition> row;
      row.reserve(scratch.size());
      for (auto& t : scratch) {
        internState(t.target);
        row.push_back(std::move(t));
      }
      rows.resize(states.size());
      rows[s] = std::move(row);
    }
    frontierBegin = frontierEnd;
  }
  rows.resize(states.size());

  dtmc::ExplicitDtmc::Raw raw;
  raw.layout = layout;
  raw.keys.reserve(states.size());
  for (const State& s : states) raw.keys.push_back(layout.pack(s));
  raw.rowPtr.reserve(states.size() + 1);
  raw.rowPtr.push_back(0);
  for (auto& row : rows) {
    for (const auto& t : row) {
      raw.col.push_back(index.at(t.target));
      raw.val.push_back(t.prob);
    }
    raw.rowPtr.push_back(raw.col.size());
  }

  raw.initial.assign(states.size(), 0.0);
  const double w = 1.0 / static_cast<double>(initialIdx.size());
  for (const auto idx : initialIdx) raw.initial[idx] += w;

  return {dtmc::ExplicitDtmc::fromRaw(std::move(raw)),
          reachabilityIterations, 0.0};
}

}  // namespace mimostat::test
