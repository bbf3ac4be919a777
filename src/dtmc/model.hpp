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
// once. Every in-repo model is immutable after construction. Per-call
// scratch comes from the caller: transitions() writes into a
// dtmc::Successors sink that its caller owns (one per explore chunk, one
// per path sampler) and edits the scratch State that sink lends, so a model
// needs neither per-call heap state nor per-thread state (the lint rule
// hidden-thread-state keeps `thread_local` out of src/ outside obs::).
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

/// One successor on a layout that fits 64 bits: the target's VarLayout key.
/// Keys order as the states do, so rows of either form sort, merge and sum
/// identically.
struct PackedTransition {
  double prob = 0.0;
  std::uint64_t target = 0;
};

/// The sink Model::transitions writes one state's successors into.
///
/// Constructed with a layout that fits 64 bits, it packs each target into
/// the layout's u64 key as it is added, so no successor owns heap memory.
/// Otherwise (no layout, or a layout wider than 64 bits) it keeps
/// Transitions — the same two-form split as Exploration's state table.
/// Entries stay in the order they were added. A sink is not thread-safe:
/// each caller that may run concurrently owns its own.
class Successors {
 public:
  /// State form.
  Successors() = default;
  /// Packed form when `layout` fits 64 bits, State form otherwise. The
  /// layout must outlive the sink.
  explicit Successors(const VarLayout& layout)
      : layout_(layout.fitsInU64() ? &layout : nullptr) {}

  /// Append one successor. Duplicate targets are allowed.
  void add(double prob, const State& target) {
    if (layout_ != nullptr) {
      packed_.push_back({prob, layout_->pack(target)});
    } else {
      states_.push_back({prob, target});
    }
  }

  /// A copy of `s` in storage the sink reuses across calls (no allocation
  /// once it has held a state of this width). Models edit it into each
  /// target and add() it, instead of copying `s` per call or per successor.
  /// `s` must not be the scratch itself.
  [[nodiscard]] State& scratch(const State& s) {
    scratch_.assign(s.begin(), s.end());
    return scratch_;
  }

  [[nodiscard]] bool isPacked() const { return layout_ != nullptr; }
  [[nodiscard]] bool empty() const {
    return isPacked() ? packed_.empty() : states_.empty();
  }
  /// Drop the entries (keeping their storage).
  void clear() {
    packed_.clear();
    states_.clear();
  }
  /// The entries of a packed sink (isPacked()).
  [[nodiscard]] std::vector<PackedTransition>& packedEntries() {
    return packed_;
  }
  /// The entries of a State-form sink (!isPacked()).
  [[nodiscard]] std::vector<Transition>& stateEntries() { return states_; }

 private:
  const VarLayout* layout_ = nullptr;
  std::vector<PackedTransition> packed_;
  std::vector<Transition> states_;
  State scratch_;
};

class Model {
 public:
  virtual ~Model() = default;

  /// Ordered list of state variables; defines the State vector layout.
  [[nodiscard]] virtual std::vector<VarSpec> variables() const = 0;

  /// Initial states (taken as a uniform distribution when more than one).
  [[nodiscard]] virtual std::vector<State> initialStates() const = 0;

  /// Add the successor distribution of `s` to `out`, one out.add() per
  /// successor. Contract:
  ///  - duplicate targets are allowed; every consumer merges them, summing
  ///    in sorted-target order;
  ///  - probabilities must sum to 1 within 1e-9;
  ///  - adding nothing declares `s` absorbing: the builder and the path
  ///    sampler both materialize a self-loop, so every consumer sees the
  ///    same chain;
  ///  - the model keeps no other per-call heap state: it edits the scratch
  ///    State out.scratch(s) lends rather than copying `s`, and keeps
  ///    per-successor work in fixed-size locals. Wrappers that collect an
  ///    inner model's successors (lump::SymmetryReducedModel,
  ///    SynchronousProduct) do so in a State-form sink of their own.
  virtual void transitions(const State& s, Successors& out) const = 0;

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
