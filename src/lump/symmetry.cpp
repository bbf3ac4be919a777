#include "lump/symmetry.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace mimostat::lump {

SymmetryReducedModel::SymmetryReducedModel(const dtmc::Model& inner,
                                           BlockStructure blocks)
    : inner_(inner), blocks_(std::move(blocks)), layout_(inner.layout()) {
  const auto reject = [](const char* why) {
    throw std::invalid_argument(std::string("SymmetryReducedModel: ") + why);
  };
  if (blocks_.empty()) reject("no symmetry blocks");
  const std::size_t arity = blocks_.front().size();
  if (arity == 0) reject("empty symmetry block");
  if (blocks_.size() * arity > kMaxBlockVars) {
    reject("the blocks list more than kMaxBlockVars variables");
  }
  std::vector<bool> listed(layout_.numVars(), false);
  for (const auto& block : blocks_) {
    if (block.size() != arity) reject("symmetry blocks differ in arity");
    for (const std::size_t var : block) {
      if (var >= listed.size()) reject("block index is not a state variable");
      if (listed[var]) reject("variable listed in two blocks");
      listed[var] = true;
    }
  }
}

std::uint64_t SymmetryReducedModel::canonicalKey(std::uint64_t key) const {
  // Extract block tuples, sort lexicographically, write back: block b gets
  // the b-th smallest tuple. Equal tuples are interchangeable, so the sort
  // need not be stable.
  const std::size_t arity = blocks_.front().size();
  const std::size_t numBlocks = blocks_.size();
  std::array<std::int32_t, kMaxBlockVars> values{};  // tuple b at b * arity
  std::array<std::uint8_t, kMaxBlockVars> order{};   // blocks, by tuple
  for (std::size_t b = 0; b < numBlocks; ++b) {
    order[b] = static_cast<std::uint8_t>(b);
    for (std::size_t i = 0; i < arity; ++i) {
      values[b * arity + i] = layout_.field(key, blocks_[b][i]);
    }
  }
  const auto tuple = [&](std::uint8_t b) { return values.begin() + b * arity; };
  const auto last = order.begin() + static_cast<std::ptrdiff_t>(numBlocks);
  std::sort(order.begin(), last, [&](std::uint8_t a, std::uint8_t b) {
    return std::lexicographical_compare(tuple(a), tuple(a) + arity, tuple(b),
                                        tuple(b) + arity);
  });
  for (std::size_t b = 0; b < numBlocks; ++b) {
    for (std::size_t i = 0; i < arity; ++i) {
      layout_.setField(key, blocks_[b][i], tuple(order[b])[i]);
    }
  }
  return key;
}

dtmc::State SymmetryReducedModel::canonicalize(const dtmc::State& s) const {
  return layout_.unpack(canonicalKey(layout_.pack(s)));
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
  // after canonicalising the successors are merged by the builder. `out`
  // packs by this model's layout, which is the inner model's.
  std::vector<dtmc::PackedTransition>& entries = out.entries();
  const std::size_t begin = entries.size();
  inner_.transitions(s, out);
  for (std::size_t i = begin; i < entries.size(); ++i) {
    entries[i].target = canonicalKey(entries[i].target);
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
  // One block has no permutation but the identity.
  if (blocks_.size() < 2) return true;
  util::Xoshiro256 rng(seed);

  // Random walk from an initial state; at each visited state check that one
  // random adjacent-block swap preserves rewards/atoms and the canonical
  // successor distribution.
  std::vector<dtmc::State> initial = inner_.initialStates();
  if (initial.empty()) return false;
  dtmc::State current = initial[rng.nextBounded(initial.size())];

  dtmc::Successors succSink(layout_);
  dtmc::Successors swappedSink(layout_);
  std::vector<dtmc::PackedTransition>& succ = succSink.entries();
  std::vector<dtmc::PackedTransition>& succSwapped = swappedSink.entries();
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

    // Canonical keys order as the canonical states do, so the normalized
    // rows, and the walk's draw, are those of the unpacked rows.
    succSink.clear();
    swappedSink.clear();
    inner_.transitions(current, succSink);
    inner_.transitions(swapped, swappedSink);
    for (auto& t : succ) t.target = canonicalKey(t.target);
    for (auto& t : succSwapped) t.target = canonicalKey(t.target);
    dtmc::normalizeTransitions(succ, 0.0);
    dtmc::normalizeTransitions(succSwapped, 0.0);
    if (succ.size() != succSwapped.size()) return false;
    for (std::size_t i = 0; i < succ.size(); ++i) {
      if (succ[i].target != succSwapped[i].target) return false;
      if (std::abs(succ[i].prob - succSwapped[i].prob) > 1e-12) return false;
    }

    // Walk one random step.
    if (!succ.empty()) {
      layout_.unpackInto(succ[rng.nextBounded(succ.size())].target, current);
    }
  }
  return true;
}

}  // namespace mimostat::lump
