// Abstract DTMC model interface — the library's analogue of a PRISM module.
//
// A model declares its state variables, its initial states, and a transition
// function mapping each state to a probability distribution over successor
// states (paper Eq. 2-5 define such a function for the Viterbi decoder).
// Labels (atomic propositions) and reward structures are exposed by name so
// pCTL properties can refer to them.
//
// Successors are written as packed u64 keys of the model's VarLayout, the
// only form rows take from the model's add() to cache eviction; a model
// whose variables need more than 64 bits has no layout and is rejected.
//
// Concurrency contract: every method may be called concurrently, from any
// thread, and must not mutate shared state. The engine computes a cold
// request's exploration rows on its pool (dtmc::explore or dtmc::revalue
// with a runner) and smc:: draws paths there, so transitions() runs on
// several threads at once. Every in-repo model is immutable after
// construction. Per-call scratch comes from the caller: transitions()
// writes into a dtmc::Successors sink that its caller owns (one per explore
// chunk, one per path sampler) and edits the scratch State that sink
// lends, so a model needs neither per-call heap state nor per-thread state
// (the lint rule hidden-thread-state keeps `thread_local` out of src/
// outside obs::).
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dtmc/state.hpp"

namespace mimostat::dtmc {

/// One successor: its probability and the target's VarLayout key. Keys
/// order as the states do, so rows sort and duplicate targets merge exactly
/// as on the unpacked states.
struct PackedTransition {
  double prob = 0.0;
  std::uint64_t target = 0;
};

/// The sink Model::transitions writes one state's successors into.
///
/// It packs each target into its layout's u64 key as it is added, so no
/// successor owns heap memory. Entries stay in the order they were added.
/// A sink is not thread-safe: each caller that may run concurrently owns
/// its own.
class Successors {
 public:
  /// `layout` is the model's (Model::layout()) and must outlive the sink.
  explicit Successors(const VarLayout& layout) : layout_(&layout) {}

  /// Append one successor. Duplicate targets are allowed.
  void add(double prob, const State& target) {
    entries_.push_back({prob, layout_->pack(target)});
  }
  /// Append one successor by its key (the layout's pack of the target).
  /// Exactly a u64: a braced State such as {x} keeps the overload above.
  void add(double prob, std::same_as<std::uint64_t> auto key) {
    entries_.push_back({prob, key});
  }

  /// A copy of `s` in storage the sink reuses across calls (no allocation
  /// once it has held a state of this width). Models edit it into each
  /// target and add() it, instead of copying `s` per call or per successor.
  /// `s` must not be the scratch itself.
  [[nodiscard]] State& scratch(const State& s) {
    scratch_.assign(s.begin(), s.end());
    return scratch_;
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Drop the entries (keeping their storage).
  void clear() { entries_.clear(); }
  /// The entries, in the order they were added.
  [[nodiscard]] std::vector<PackedTransition>& entries() { return entries_; }

 private:
  const VarLayout* layout_;
  std::vector<PackedTransition> entries_;
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
  ///    per-successor work in fixed-size locals. lump::SymmetryReducedModel
  ///    lets its inner model add into `out` and rewrites the appended keys
  ///    in place.
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

  /// Structure fingerprint: a hash of the inputs that decide the model's
  /// structure — its layout, initial states and which targets each
  /// reachable row has — but not necessarily its probabilities. Two models
  /// with equal structure fingerprints should differ only in their values;
  /// the engine then re-values the skeleton the first one explored
  /// (dtmc::revalue) instead of exploring the second. The claim is checked
  /// row by row: a wrong one costs a wasted re-valuation and a full
  /// exploration, never a wrong answer. Implementations hash a per-class
  /// tag plus every constructor input that may change a row's targets.
  /// Default: none, so the model is always explored.
  [[nodiscard]] virtual std::optional<std::uint64_t> structureFingerprint()
      const {
    return std::nullopt;
  }

  /// Layout built from variables(); throws std::invalid_argument when the
  /// variables need more than 64 bits.
  [[nodiscard]] VarLayout layout() const { return VarLayout(variables()); }
};

/// Sort a successor list by target, merge duplicate targets (summing their
/// probabilities in sorted order; a strictly ascending list is left as it
/// is, neither step could change it) and optionally drop entries below
/// `floor`, renormalizing the remainder. Returns the total probability mass
/// before normalization (should be ~1). Throws std::invalid_argument when
/// the floor would remove every entry of a non-empty row.
double normalizeTransitions(std::vector<PackedTransition>& row, double floor);

}  // namespace mimostat::dtmc
