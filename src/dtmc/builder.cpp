#include "dtmc/builder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace mimostat::dtmc {

namespace {

std::uint64_t hashBits(std::uint64_t h, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return util::hashCombine(h, util::mix64(bits));
}

/// State keys for layouts that fit 64 bits. VarLayout packs
/// lexicographically, so `<` on keys is State's order: rows sort, and
/// duplicate targets merge, exactly as on the unpacked states.
struct PackedKeys {
  using Key = std::uint64_t;
  const VarLayout* layout;
  [[nodiscard]] Key key(const State& s) const { return layout->pack(s); }
  [[nodiscard]] State state(Key key) const { return layout->unpack(key); }
  [[nodiscard]] static std::uint64_t hash(Key key) { return util::mix64(key); }
};

/// Layouts wider than 64 bits: the state vector is its own key.
struct WideKeys {
  using Key = State;
  [[nodiscard]] static Key key(State&& s) { return std::move(s); }
  [[nodiscard]] static const State& state(const Key& key) { return key; }
  [[nodiscard]] static std::uint64_t hash(const Key& key) {
    return util::fnv1a(key.data(), key.size() * sizeof(std::int32_t));
  }
};

/// explore()'s BFS over `Keys`-typed state keys, continuing hash `h`.
/// `table` (a member of `e`) receives the state table in discovery order.
template <class Keys>
void exploreWith(const Model& model, const Keys& keys,
                 const ExploreOptions& options, std::uint64_t h,
                 std::vector<typename Keys::Key>& table, Exploration& e) {
  using Key = typename Keys::Key;
  struct Entry {
    double prob;
    Key target;
  };
  // Open-addressing index over the state table: a slot holds a state
  // number + 1 (0 = empty) and keys compare through the table, so a slot
  // costs 4 bytes and every key — the all-ones u64 included — is storable.
  // Linear probing, at most half full.
  std::vector<std::uint32_t> slots(1024, 0);
  bool truncated = false;
  // The number of `key`; a new state extends the hashed state table, and
  // the first one past the cap truncates the exploration.
  const auto intern = [&](Key&& key) {
    std::size_t slot = Keys::hash(key) & (slots.size() - 1);
    for (; slots[slot] != 0; slot = (slot + 1) & (slots.size() - 1)) {
      if (table[slots[slot] - 1] == key) return slots[slot] - 1;
    }
    const auto number = static_cast<std::uint32_t>(table.size());
    table.push_back(std::move(key));
    slots[slot] = number + 1;
    if (2 * table.size() > slots.size()) {
      slots.assign(2 * slots.size(), 0);
      for (std::uint32_t n = 0; n < table.size(); ++n) {
        slot = Keys::hash(table[n]) & (slots.size() - 1);
        while (slots[slot] != 0) slot = (slot + 1) & (slots.size() - 1);
        slots[slot] = n + 1;
      }
    }
    h = util::hashCombine(h, Keys::hash(table.back()));
    truncated = table.size() > options.maxStates;
    return number;
  };

  std::vector<std::uint32_t> initial;
  for (State& s : model.initialStates()) {
    initial.push_back(intern(keys.key(std::move(s))));
    if (truncated) break;
  }
  for (const std::uint32_t number : initial) {
    h = util::hashCombine(h, util::mix64(number));
  }

  ExplicitDtmc::Raw& raw = e.raw;
  raw.rowPtr.push_back(0);
  std::vector<Transition> out;
  std::vector<Entry> row;
  for (std::size_t levelBegin = 0; !truncated && levelBegin < table.size();) {
    const std::size_t levelEnd = table.size();
    ++e.reachabilityIterations;
    for (std::size_t s = levelBegin; s < levelEnd && !truncated; ++s) {
      out.clear();
      model.transitions(keys.state(table[s]), out);
      row.clear();
      for (Transition& t : out) {
        row.push_back({t.prob, keys.key(std::move(t.target))});
      }
      // Transition-less states are absorbing (self-loop) — one convention
      // shared with smc::PathSampler, so the exact and sampling backends
      // answer the same chain for models with dead-end states.
      if (row.empty()) row.push_back({1.0, table[s]});
      const double mass = normalizeTransitions(row, options.probFloor);
      e.worstMassDeviation =
          std::max(e.worstMassDeviation, std::fabs(mass - 1.0));
      e.transitions += row.size();
      for (Entry& entry : row) {
        const std::uint32_t col = intern(std::move(entry.target));
        if (truncated) break;
        h = hashBits(util::hashCombine(h, util::mix64(col)), entry.prob);
        if (options.keepMatrix) {
          raw.col.push_back(col);
          raw.val.push_back(entry.prob);
        }
      }
      if (options.keepMatrix) raw.rowPtr.push_back(raw.col.size());
    }
    levelBegin = levelEnd;
  }

  e.states = table.size();
  e.exact = !truncated;
  e.hash = truncated ? util::hashCombine(h, util::mix64(~options.maxStates))
                     : h;
  if (truncated || !options.keepMatrix) {
    table = {};
    raw = {};
    return;
  }
  raw.initial.assign(table.size(), 0.0);
  if (!initial.empty()) {
    const double w = 1.0 / static_cast<double>(initial.size());
    for (const std::uint32_t number : initial) raw.initial[number] += w;
  }
}

}  // namespace

Exploration explore(const Model& model, const ExploreOptions& options) {
  // Auto-parents to "engine.analyze" when the engine derives a model key.
  obs::Span span("dtmc.explore");
  const VarLayout layout = model.layout();
  std::uint64_t h = 0xA11A5E5ULL;
  for (const VarSpec& var : layout.vars()) {
    h = util::hashCombine(h, util::fnv1a(var.name.data(), var.name.size()));
    h = util::hashCombine(h, util::mix64(static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(var.lo)) |
                             (static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(var.hi))
                              << 32)));
  }

  Exploration e;
  if (layout.fitsInU64()) {
    exploreWith(model, PackedKeys{&layout}, options, h, e.packedStates, e);
  } else {
    exploreWith(model, WideKeys{}, options, h, e.raw.states, e);
  }
  if (!e.raw.rowPtr.empty()) e.raw.layout = layout;
  e.seconds = span.stopSeconds();
  return e;
}

BuildResult buildFromExploration(Exploration exploration,
                                 const BuildOptions& options) {
  if (exploration.states == 0) {
    throw std::runtime_error("buildExplicit: model has no initial states");
  }
  if (!exploration.exact || exploration.states > options.maxStates) {
    throw std::runtime_error(
        "buildExplicit: reachable state space exceeds maxStates");
  }
  ExplicitDtmc::Raw& raw = exploration.raw;
  if (raw.rowPtr.empty()) {
    throw std::invalid_argument(
        "buildFromExploration: the exploration kept no matrix");
  }
  if (exploration.worstMassDeviation > options.massTolerance) {
    MS_LOG_WARN("buildExplicit: worst transition-mass deviation %.3e",
                exploration.worstMassDeviation);
  }
  if (!exploration.packedStates.empty()) {
    raw.states.reserve(exploration.packedStates.size());
    for (const std::uint64_t key : exploration.packedStates) {
      raw.states.push_back(raw.layout.unpack(key));
    }
    exploration.packedStates = {};
  }

  BuildResult result{ExplicitDtmc::fromRaw(std::move(raw), options.orientation),
                     exploration.reachabilityIterations, exploration.seconds};
  MS_LOG_INFO("buildExplicit: %u states, %llu transitions, RI=%u",
              result.dtmc.numStates(),
              static_cast<unsigned long long>(result.dtmc.numTransitions()),
              result.reachabilityIterations);
  return result;
}

BuildResult buildExplicit(const Model& model, const BuildOptions& options) {
  // Auto-parents to "engine.build" when the engine drives the build.
  obs::Span span("dtmc.build");
  ExploreOptions exploreOptions;
  exploreOptions.maxStates = options.maxStates;
  exploreOptions.probFloor = options.probFloor;
  BuildResult result =
      buildFromExploration(explore(model, exploreOptions), options);
  result.buildSeconds = span.stopSeconds();
  return result;
}

CountResult countReachable(const Model& model, std::uint64_t maxStates) {
  obs::Span span("dtmc.countReachable");
  ExploreOptions options;
  options.maxStates = maxStates;
  options.keepMatrix = false;
  const Exploration e = explore(model, options);
  if (!e.exact) {
    throw std::runtime_error(
        "countReachable: reachable state space exceeds maxStates");
  }
  return {e.states, e.transitions, e.reachabilityIterations,
          span.stopSeconds()};
}

}  // namespace mimostat::dtmc
