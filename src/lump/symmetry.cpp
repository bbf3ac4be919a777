#include "lump/symmetry.hpp"

#include <algorithm>
#include <cassert>

#include "util/rng.hpp"

namespace mimostat::lump {

SymmetryReducedModel::SymmetryReducedModel(const dtmc::Model& inner,
                                           BlockStructure blocks)
    : inner_(inner), blocks_(std::move(blocks)) {
  assert(!blocks_.empty());
  [[maybe_unused]] const std::size_t arity = blocks_.front().size();
  for ([[maybe_unused]] const auto& block : blocks_) {
    assert(block.size() == arity && "all symmetry blocks must have equal arity");
  }
}

dtmc::State SymmetryReducedModel::canonicalize(const dtmc::State& s) const {
  // Extract block tuples, sort lexicographically, write back.
  const std::size_t arity = blocks_.front().size();
  std::vector<std::vector<std::int32_t>> tuples(blocks_.size());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    tuples[b].resize(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      tuples[b][i] = s[blocks_[b][i]];
    }
  }
  std::sort(tuples.begin(), tuples.end());
  dtmc::State canonical(s);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    for (std::size_t i = 0; i < arity; ++i) {
      canonical[blocks_[b][i]] = tuples[b][i];
    }
  }
  return canonical;
}

std::vector<dtmc::VarSpec> SymmetryReducedModel::variables() const {
  return inner_.variables();
}

std::vector<dtmc::State> SymmetryReducedModel::initialStates() const {
  std::vector<dtmc::State> initial = inner_.initialStates();
  for (auto& s : initial) s = canonicalize(s);
  // Canonicalisation may merge initial states.
  std::sort(initial.begin(), initial.end());
  initial.erase(std::unique(initial.begin(), initial.end()), initial.end());
  return initial;
}

void SymmetryReducedModel::transitions(const dtmc::State& s,
                                       dtmc::Successors& out) const {
  // `s` is already canonical (a valid state of the inner model); duplicates
  // after canonicalising the successors are merged by the builder. The
  // inner successors arrive in a State-form sink.
  dtmc::Successors inner;
  inner_.transitions(s, inner);
  for (const dtmc::Transition& t : inner.stateEntries()) {
    out.add(t.prob, canonicalize(t.target));
  }
}

bool SymmetryReducedModel::atom(const dtmc::State& s,
                                std::string_view name) const {
  return inner_.atom(s, name);
}

double SymmetryReducedModel::stateReward(const dtmc::State& s,
                                         std::string_view name) const {
  return inner_.stateReward(s, name);
}

bool SymmetryReducedModel::verifySymmetry(const std::vector<std::string>& atoms,
                                          int samples,
                                          std::uint64_t seed) const {
  util::Xoshiro256 rng(seed);
  const std::vector<dtmc::VarSpec> vars = inner_.variables();

  // Random walk from an initial state; at each visited state check that one
  // random adjacent-block swap preserves rewards/atoms and the canonical
  // successor distribution.
  std::vector<dtmc::State> initial = inner_.initialStates();
  if (initial.empty()) return false;
  dtmc::State current = initial[rng.nextBounded(initial.size())];

  dtmc::Successors succSink;
  dtmc::Successors swappedSink;
  std::vector<dtmc::Transition>& succ = succSink.stateEntries();
  std::vector<dtmc::Transition>& succSwapped = swappedSink.stateEntries();
  for (int iter = 0; iter < samples; ++iter) {
    // Pick a random pair of blocks to swap.
    const std::size_t b1 = rng.nextBounded(blocks_.size());
    std::size_t b2 = rng.nextBounded(blocks_.size() - 1);
    if (b2 >= b1) ++b2;
    dtmc::State swapped(current);
    for (std::size_t i = 0; i < blocks_[b1].size(); ++i) {
      std::swap(swapped[blocks_[b1][i]], swapped[blocks_[b2][i]]);
    }

    if (inner_.stateReward(current, "") != inner_.stateReward(swapped, "")) {
      return false;
    }
    for (const auto& atomName : atoms) {
      if (inner_.atom(current, atomName) != inner_.atom(swapped, atomName)) {
        return false;
      }
    }

    succ.clear();
    succSwapped.clear();
    inner_.transitions(current, succSink);
    inner_.transitions(swapped, swappedSink);
    for (auto& t : succ) t.target = canonicalize(t.target);
    for (auto& t : succSwapped) t.target = canonicalize(t.target);
    dtmc::normalizeTransitions(succ, 0.0);
    dtmc::normalizeTransitions(succSwapped, 0.0);
    if (succ.size() != succSwapped.size()) return false;
    for (std::size_t i = 0; i < succ.size(); ++i) {
      if (succ[i].target != succSwapped[i].target) return false;
      if (std::abs(succ[i].prob - succSwapped[i].prob) > 1e-12) return false;
    }

    // Walk one random step.
    if (!succ.empty()) {
      current = succ[rng.nextBounded(succ.size())].target;
    }
  }
  return true;
}

}  // namespace mimostat::lump
