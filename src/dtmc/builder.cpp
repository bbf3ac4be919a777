#include "dtmc/builder.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace mimostat::dtmc {

namespace {

/// The build warns when a row's probability mass deviates from 1 by more
/// than this.
constexpr double kMassTolerance = 1e-9;

std::uint64_t hashBits(std::uint64_t h, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return util::hashCombine(h, util::mix64(bits));
}

// Window sizing for explore()'s two-phase levels. Fixed constants: the
// schedule never depends on the host, and results never depend on it at
// all (the ordered phase alone numbers states and extends the hash).
/// The first window of a level measures its entries per state.
constexpr std::size_t kProbeStates = 32;
/// Later windows hold about this many row entries.
constexpr std::size_t kWindowEntries = std::size_t{1} << 16;
/// A task gets at least this many (estimated) entries...
constexpr std::size_t kChunkEntries = std::size_t{1} << 11;
/// ...and a window at most this many tasks.
constexpr std::size_t kMaxChunks = 16;

/// explore()'s BFS over the packed keys of `layout`, continuing hash `h`.
/// `e.raw.keys` receives the state table in discovery order. VarLayout
/// packs lexicographically, so `<` on keys is State's order: rows sort, and
/// duplicate targets merge, exactly as on the unpacked states.
///
/// Each level runs in windows of states, each in two phases. The parallel
/// phase computes a pure function of each state into its chunk's slots:
/// the model's successors, normalized in place in the chunk's sink, the
/// row's mass and digest, and each target's number when the (unchanging)
/// index already holds it. The ordered phase, on the calling thread, walks
/// the window in state order, numbers the targets the lookup missed and
/// folds each row's digest into the hash — so every output is bitwise the
/// same with or without `runner`, at any pool size. The next window's tasks
/// then copy the numbered rows into the CSR at offsets the ordered phase
/// prefix-summed.
void exploreWith(const Model& model, const VarLayout& layout,
                 const ExploreOptions& options, const la::TaskRunner& runner,
                 std::uint64_t h, Exploration& e) {
  std::vector<std::uint64_t>& table = e.raw.keys;
  // Open-addressing index over the state table: a slot holds a state
  // number + 1 (0 = empty) and keys compare through the table, so a slot
  // costs 4 bytes and every key — the all-ones u64 included — is storable.
  // Linear probing, at most half full.
  std::vector<std::uint32_t> slots(1024, 0);
  bool truncated = false;
  // The slot holding `key`, or the empty slot where it belongs. Read-only.
  const auto probe = [&](std::uint64_t key, std::uint64_t hash) {
    std::size_t slot = hash & (slots.size() - 1);
    while (slots[slot] != 0 && table[slots[slot] - 1] != key) {
      slot = (slot + 1) & (slots.size() - 1);
    }
    return slot;
  };
  // The number of `key`; a new state extends the hashed state table, and
  // the first one past the cap truncates the exploration.
  const auto intern = [&](std::uint64_t key) {
    const std::uint64_t hash = util::mix64(key);
    std::size_t slot = probe(key, hash);
    if (slots[slot] != 0) return slots[slot] - 1;
    const auto number = static_cast<std::uint32_t>(table.size());
    table.push_back(key);
    slots[slot] = number + 1;
    if (2 * table.size() > slots.size()) {
      slots.assign(2 * slots.size(), 0);
      for (std::uint32_t n = 0; n < table.size(); ++n) {
        slot = util::mix64(table[n]) & (slots.size() - 1);
        while (slots[slot] != 0) slot = (slot + 1) & (slots.size() - 1);
        slots[slot] = n + 1;
      }
    }
    h = util::hashCombine(h, hash);
    truncated = table.size() > options.maxStates;
    return number;
  };

  std::vector<std::uint32_t> initial;
  for (const State& s : model.initialStates()) {
    initial.push_back(intern(layout.pack(s)));
    if (truncated) break;
  }
  for (const std::uint32_t number : initial) {
    h = util::hashCombine(h, util::mix64(number));
  }

  // One task's share of a window: states [begin, end), their normalized
  // rows concatenated in `entries`, and per entry the target's number + 1
  // (0 until the ordered phase numbers a target the lookup missed). The
  // buffers belong to this call and are reused by every window; chunks sit
  // on their own cache lines, as each task grows its own vectors.
  struct alignas(64) Chunk {
    explicit Chunk(const VarLayout& layout) : sink(layout) {}
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t base = 0;  ///< the CSR offset of the chunk's first entry
    Successors sink;       ///< one state's row, normalized in place
    std::vector<PackedTransition> entries;
    std::vector<std::uint32_t> found;
    std::vector<std::size_t> rowEnd;     ///< per state, into entries
    std::vector<double> mass;            ///< per state, before normalizing
    std::vector<std::uint64_t> digest;   ///< per state: length, keys, probs
    State scratch;                       ///< the expanded state, decoded
    /// The first state whose row threw; later states are not expanded.
    std::size_t failed = 0;
    std::exception_ptr error;
  };
  std::vector<Chunk> chunks;
  chunks.reserve(kMaxChunks);
  for (std::size_t t = 0; t < kMaxChunks; ++t) chunks.emplace_back(layout);
  std::size_t widestRow = 0;

  // Parallel phase: mutates only `c`.
  const auto expand = [&](Chunk& c, bool lookup) {
    c.entries.clear();
    c.found.clear();
    c.rowEnd.clear();
    c.mass.clear();
    c.digest.clear();
    c.failed = c.end;
    c.error = nullptr;
    for (std::size_t s = c.begin; s < c.end; ++s) {
      try {
        c.sink.clear();
        layout.unpackInto(table[s], c.scratch);
        model.transitions(c.scratch, c.sink);
        std::vector<PackedTransition>& row = c.sink.entries();
        // Transition-less states are absorbing (self-loop) — one convention
        // shared with smc::PathSampler, so the exact and sampling backends
        // answer the same chain for models with dead-end states.
        if (row.empty()) row.push_back({1.0, table[s]});
        c.mass.push_back(normalizeTransitions(row, options.probFloor));
        std::uint64_t digest = util::mix64(row.size());
        for (const PackedTransition& entry : row) {
          const std::uint64_t hash = util::mix64(entry.target);
          c.found.push_back(lookup ? slots[probe(entry.target, hash)] : 0);
          c.entries.push_back(entry);
          digest = hashBits(util::hashCombine(digest, hash), entry.prob);
        }
        c.rowEnd.push_back(c.entries.size());
        c.digest.push_back(digest);
      } catch (...) {
        c.failed = s;
        c.error = std::current_exception();
        return;
      }
    }
  };

  // Ordered phase: the sequential BFS's bookkeeping, in state order. A
  // failed expansion is rethrown when its state is reached, so the error is
  // the lowest failing state's, and only if the BFS gets that far.
  ExplicitDtmc::Raw& raw = e.raw;
  std::size_t numbered = 0;  // entries numbered so far
  const auto numberChunk = [&](Chunk& c) {
    c.base = numbered;
    std::size_t k = 0;
    for (std::size_t s = c.begin; s < c.end; ++s) {
      if (s == c.failed) std::rethrow_exception(c.error);
      const std::size_t i = s - c.begin;
      e.worstMassDeviation =
          std::max(e.worstMassDeviation, std::fabs(c.mass[i] - 1.0));
      e.transitions += c.rowEnd[i] - k;
      widestRow = std::max(widestRow, c.rowEnd[i] - k);
      for (; k < c.rowEnd[i]; ++k) {
        if (c.found[k] == 0) c.found[k] = intern(c.entries[k].target) + 1;
        if (truncated) return;
      }
      h = util::hashCombine(h, c.digest[i]);
    }
    numbered += c.entries.size();
  };
  // One dispatch a window: task t copies chunk t, which holds the last
  // window's numbered rows, into the CSR at its offset, then expands it
  // over its share of the `states` from `w` (= the rows numbered so far).
  std::size_t pending = 0;  // chunks holding the last window
  const auto copyThenExpand = [&](std::size_t w, std::size_t states,
                                  std::size_t tasks) {
    if (options.keepMatrix) {
      raw.rowPtr.resize(w + 1);
      raw.col.resize(numbered);
      raw.val.resize(numbered);
    }
    const std::size_t count = std::max({tasks, pending, std::size_t{1}});
    la::runTasks(runner, count, [&](std::size_t t) {
      Chunk& c = chunks[t];
      const bool copy = options.keepMatrix && t < pending;
      for (std::size_t s = c.begin, k = 0; copy && s < c.end; ++s) {
        for (; k < c.rowEnd[s - c.begin]; ++k) {
          raw.col[c.base + k] = c.found[k] - 1;
          raw.val[c.base + k] = c.entries[k].prob;
        }
        raw.rowPtr[s + 1] = c.base + k;
      }
      if (t >= tasks) return;
      c.begin = w + states * t / tasks;
      c.end = w + states * (t + 1) / tasks;
      // A single inline chunk interns every target in the ordered phase;
      // looking them up first would only probe twice.
      expand(c, tasks > 1);
    });
    pending = tasks;
  };

  raw.rowPtr.assign(1, 0);
  for (std::size_t levelBegin = 0; !truncated && levelBegin < table.size();) {
    const std::size_t levelEnd = table.size();
    ++e.reachabilityIterations;
    std::size_t levelEntries = 0;
    for (std::size_t w = levelBegin; !truncated && w < levelEnd;) {
      // Probe the level, then size windows by its observed entries/state.
      const std::size_t perState =
          w == levelBegin
              ? 0
              : std::max<std::size_t>(1, levelEntries / (w - levelBegin));
      const std::size_t states = std::min(
          levelEnd - w, perState == 0 ? kProbeStates
                                      : std::max<std::size_t>(
                                            1, kWindowEntries / perState));
      std::size_t tasks = 1;
      if (runner != nullptr) {
        tasks = perState == 0 ? states : states * perState / kChunkEntries;
        tasks = std::clamp<std::size_t>(tasks, 1,
                                        std::min(states, kMaxChunks));
      }
      for (std::size_t t = 0; t < tasks; ++t) {
        // Grow the buffers here, on the calling thread, to the expected
        // size: memory a worker allocates stays in its malloc arena.
        Chunk& c = chunks[t];
        const std::size_t rows = states * (t + 1) / tasks - states * t / tasks;
        c.entries.reserve(rows * perState * 5 / 4);
        c.found.reserve(rows * perState * 5 / 4);
        c.rowEnd.reserve(rows);
        c.mass.reserve(rows);
        c.digest.reserve(rows);
        c.sink.entries().reserve(widestRow);
      }
      copyThenExpand(w, states, tasks);
      for (std::size_t t = 0; t < tasks && !truncated; ++t) {
        numberChunk(chunks[t]);
        levelEntries += chunks[t].entries.size();
      }
      w += states;
    }
    levelBegin = levelEnd;
  }

  e.states = table.size();
  e.exact = !truncated;
  e.hash = truncated ? util::hashCombine(h, util::mix64(~options.maxStates))
                     : h;
  if (truncated || !options.keepMatrix) {
    raw = {};  // the state table with it
    return;
  }
  copyThenExpand(table.size(), 0, 0);  // the last window's rows
  raw.initial.assign(table.size(), 0.0);
  if (!initial.empty()) {
    const double w = 1.0 / static_cast<double>(initial.size());
    for (const std::uint32_t number : initial) raw.initial[number] += w;
  }
}

}  // namespace

Exploration explore(const Model& model, const ExploreOptions& options,
                    const la::TaskRunner& runner) {
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
  exploreWith(model, layout, options, runner, h, e);
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
  if (exploration.worstMassDeviation > kMassTolerance) {
    MS_LOG_WARN("buildExplicit: worst transition-mass deviation %.3e",
                exploration.worstMassDeviation);
  }

  BuildResult result{ExplicitDtmc::fromRaw(std::move(raw)),
                     exploration.reachabilityIterations, exploration.seconds};
  MS_LOG_INFO("buildExplicit: %u states, %llu transitions, RI=%u",
              result.dtmc.numStates(),
              static_cast<unsigned long long>(result.dtmc.numTransitions()),
              result.reachabilityIterations);
  return result;
}

BuildResult buildExplicit(const Model& model, const BuildOptions& options,
                          const la::TaskRunner& runner) {
  // Auto-parents to "engine.build" when the engine drives the build.
  obs::Span span("dtmc.build");
  ExploreOptions exploreOptions;
  exploreOptions.maxStates = options.maxStates;
  exploreOptions.probFloor = options.probFloor;
  BuildResult result =
      buildFromExploration(explore(model, exploreOptions, runner), options);
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
