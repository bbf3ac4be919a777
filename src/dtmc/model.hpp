// Abstract DTMC model interface — the library's analogue of a PRISM module.
//
// A model declares its state variables, its initial states, and a transition
// function mapping each state to a probability distribution over successor
// states (paper Eq. 2-5 define such a function for the Viterbi decoder).
// Labels (atomic propositions) and reward structures are exposed by name so
// pCTL properties can refer to them.
//
// Concurrency contract: every method may be called concurrently, from any
// thread, and must not mutate shared state. The engine computes a cold
// request's exploration rows on its pool (dtmc::explore with a runner) and
// smc:: draws paths there, so transitions() runs on several threads at
// once. Every in-repo model is immutable after construction.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dtmc/state.hpp"

namespace mimostat::dtmc {

/// One probabilistic successor: (probability, target state).
struct Transition {
  double prob = 0.0;
  State target;
};

class Model {
 public:
  virtual ~Model() = default;

  /// Ordered list of state variables; defines the State vector layout.
  [[nodiscard]] virtual std::vector<VarSpec> variables() const = 0;

  /// Initial states (taken as a uniform distribution when more than one).
  [[nodiscard]] virtual std::vector<State> initialStates() const = 0;

  /// Append the successor distribution of `s` to `out`. Implementations may
  /// emit duplicate targets; the builder merges them. Probabilities must sum
  /// to 1 within 1e-9. Emitting nothing declares `s` absorbing: the builder
  /// and the path sampler both materialize a self-loop, so every consumer
  /// sees the same chain.
  virtual void transitions(const State& s, std::vector<Transition>& out) const = 0;

  /// Truth of the named atomic proposition in state `s`.
  /// Default: no atoms (returns false for every name).
  [[nodiscard]] virtual bool atom(const State& s, std::string_view name) const;

  /// Value of the named reward structure in state `s`.
  /// Default reward (empty name or "default") is 0.
  [[nodiscard]] virtual double stateReward(const State& s,
                                           std::string_view name) const;

  /// Parameter fingerprint: a hash of everything that defines the model,
  /// computed without exploring it. Contract: two models with equal
  /// fingerprints are interchangeable — the same variables, initial states,
  /// transitions, atoms and rewards. The engine then serves the second
  /// model from the first one's cache entry without exploring it
  /// (engine::AnalysisEngine, "Model cache"). Implementations hash a
  /// per-class tag plus every constructor input (doubles by bit pattern);
  /// a subclass that changes any of the above must override it. Default:
  /// no fingerprint, so the engine explores the model for its cache key.
  [[nodiscard]] virtual std::optional<std::uint64_t> fingerprint() const {
    return std::nullopt;
  }

  /// Convenience: layout built from variables().
  [[nodiscard]] VarLayout layout() const { return VarLayout(variables()); }
};

/// Sort a successor list by target, merge duplicate targets (summing their
/// probabilities in sorted order) and optionally drop entries below
/// `floor`, renormalizing the remainder. Returns the total probability mass
/// before normalization (should be ~1). `Entry` is Transition or any
/// {prob, target} pair whose targets compare like State: on packed keys,
/// which order as the states do, the same std::sort makes the same
/// comparisons, so duplicates merge bit-identically.
template <class Entry>
double normalizeTransitions(std::vector<Entry>& row, double floor) {
  if (row.empty()) return 0.0;
  std::sort(row.begin(), row.end(), [](const Entry& a, const Entry& b) {
    return a.target < b.target;
  });
  // Merge duplicates in place.
  std::size_t out = 0;
  for (std::size_t i = 1; i < row.size(); ++i) {
    if (row[i].target == row[out].target) {
      row[out].prob += row[i].prob;
    } else {
      ++out;
      if (out != i) row[out] = std::move(row[i]);
    }
  }
  row.resize(out + 1);

  double mass = 0.0;
  for (const auto& t : row) mass += t.prob;

  if (floor > 0.0) {
    std::erase_if(row, [floor](const Entry& t) { return t.prob < floor; });
    assert(!row.empty() && "probability floor removed all transitions");
    double kept = 0.0;
    for (const auto& t : row) kept += t.prob;
    if (kept > 0.0 && kept != mass) {
      const double scale = mass / kept;
      for (auto& t : row) t.prob *= scale;
    }
  }
  return mass;
}

}  // namespace mimostat::dtmc
