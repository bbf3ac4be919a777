#include "dtmc/builder.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <utility>

#include "la/numbering.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace mimostat::dtmc {

namespace {

/// The build warns when a row's probability mass deviates from 1 by more
/// than this.
constexpr double kMassTolerance = 1e-9;

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

/// The hash an exploration of `layout` starts from.
std::uint64_t layoutHash(const VarLayout& layout) {
  std::uint64_t h = 0xA11A5E5ULL;
  for (const VarSpec& var : layout.vars()) {
    h = util::hashCombine(h, util::fnv1a(var.name.data(), var.name.size()));
    h = util::hashCombine(h, util::mix64(static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(var.lo)) |
                             (static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(var.hi))
                              << 32)));
  }
  return h;
}

/// The digest a normalized row folds into the hash: its length, then each
/// entry's target key and probability bits.
std::uint64_t rowDigest(const std::vector<PackedTransition>& row) {
  std::uint64_t digest = util::mix64(row.size());
  for (const PackedTransition& entry : row) {
    digest = util::hashCombineDouble(
        util::hashCombine(digest, util::mix64(entry.target)), entry.prob);
  }
  return digest;
}

/// `s`'s normalized row in `sink` (a transition-less state absorbing:
/// self-loop — one convention shared with smc::PathSampler, so the exact
/// and sampling backends answer the same chain for models with dead-end
/// states). Returns the row's mass before normalizing.
double expandRow(const Model& model, const VarLayout& layout, double floor,
                 std::uint64_t key, State& scratch, Successors& sink) {
  sink.clear();
  layout.unpackInto(key, scratch);
  model.transitions(scratch, sink);
  std::vector<PackedTransition>& row = sink.entries();
  if (row.empty()) row.push_back({1.0, key});
  return normalizeTransitions(row, floor);
}

/// The uniform distribution over the `initial` state numbers (a repeated
/// number counting repeatedly) among `n` states.
std::vector<double> initialDistribution(
    std::size_t n, const std::vector<std::uint32_t>& initial) {
  std::vector<double> distribution(n, 0.0);
  const double w = 1.0 / static_cast<double>(initial.size());
  for (const std::uint32_t number : initial) distribution[number] += w;
  return distribution;
}

/// explore()'s BFS over the packed keys of `layout`, continuing hash `h`.
/// `e.raw.keys` receives the state table in discovery order. VarLayout
/// packs lexicographically, so `<` on keys is State's order: rows sort, and
/// duplicate targets merge, exactly as on the unpacked states.
///
/// Each level runs in windows of states, each in the steps of
/// la::KeyNumbering. On the runner, each chunk computes a pure function of
/// its states: the model's successors, normalized in place in the chunk's
/// sink, the row's mass and digest, and each target's add() (a read-only
/// lookup of the numbered states, else its chunk-local first occurrence).
/// The shards then claim the new targets. The ordered pass on the calling
/// thread walks the window in state order, numbers each first claim and
/// folds its hash and each row's digest into the hash, so every output is
/// bitwise the same with or without `runner`, at any pool size. Publishing
/// the numbers copies the rows into the CSR at the offsets the ordered pass
/// prefix-summed; a window without new states publishes nothing, and the
/// next window's tasks copy its rows before expanding their own.
void exploreWith(const Model& model, const VarLayout& layout,
                 const ExploreOptions& options, const la::TaskRunner& runner,
                 std::uint64_t h, Exploration& e) {
  // The state index; its keys() are the state table.
  la::KeyNumbering numbering;
  const std::vector<std::uint64_t>& table = numbering.keys();
  std::vector<la::KeyNumbering::Range> ranges(kMaxChunks);
  bool truncated = false;
  // Numbers the first claims among range.keys[id, end) in order; the first
  // state past the cap truncates the exploration. Returns where it stopped.
  const auto numberUpTo = [&](const la::KeyNumbering::Range& range,
                              std::size_t id, std::size_t end) {
    for (; id < end && !truncated; ++id) {
      if (!numbering.assign(range, id)) continue;
      h = util::hashCombine(h, util::mix64(range.keys[id]));
      truncated = numbering.size() > options.maxStates;
    }
    return id;
  };

  std::vector<std::uint32_t> initial;
  ranges[0].reset(true);
  for (const State& s : model.initialStates()) {
    const std::uint64_t key = layout.pack(s);
    initial.push_back(numbering.add(ranges[0], key, util::mix64(key)));
  }
  numbering.claim(runner, ranges, 1);
  // add() gave the n-th new initial state the value n; keep the initial
  // states up to the first one past the cap.
  const std::size_t numbered =
      numberUpTo(ranges[0], 0, ranges[0].keys.size());
  if (truncated) {
    initial.erase(std::find(initial.begin(), initial.end(), numbered) + 1,
                  initial.end());
  }
  for (std::uint32_t& number : initial) {
    number = numbering.resolve(ranges[0], number);
    h = util::hashCombine(h, util::mix64(number));
  }
  if (!truncated) numbering.publish(runner, 0, [](std::size_t) {});

  // One task's share of a window: states [begin, end), their normalized
  // rows concatenated in `entries`, and per entry the target's add() value.
  // The buffers belong to this call and are reused by every window; chunks
  // sit on their own cache lines, as each task grows its own vectors.
  struct alignas(64) Chunk {
    explicit Chunk(const VarLayout& layout) : sink(layout) {}
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t base = 0;  ///< the CSR offset of the chunk's first entry
    Successors sink;       ///< one state's row, normalized in place
    std::vector<PackedTransition> entries;
    std::vector<std::uint32_t> found;
    std::vector<std::size_t> rowEnd;     ///< per state, into entries
    std::vector<std::size_t> newEnd;     ///< per state, into its range
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

  // On the runner: mutates only `c` and `range`.
  const auto expand = [&](Chunk& c, la::KeyNumbering::Range& range,
                          bool only) {
    c.entries.clear();
    c.found.clear();
    c.rowEnd.clear();
    c.newEnd.clear();
    c.mass.clear();
    c.digest.clear();
    c.failed = c.end;
    c.error = nullptr;
    range.reset(only);
    for (std::size_t s = c.begin; s < c.end; ++s) {
      try {
        c.mass.push_back(expandRow(model, layout, options.probFloor, table[s],
                                   c.scratch, c.sink));
        const std::vector<PackedTransition>& row = c.sink.entries();
        c.entries.insert(c.entries.end(), row.begin(), row.end());
        c.rowEnd.push_back(c.entries.size());
        c.digest.push_back(rowDigest(row));
      } catch (...) {
        c.failed = s;
        c.error = std::current_exception();
        break;
      }
    }
    // The targets in one tight loop, apart from the model's own tables.
    for (std::size_t i = 0, k = 0; i < c.rowEnd.size(); ++i) {
      for (; k < c.rowEnd[i]; ++k) {
        const std::uint64_t key = c.entries[k].target;
        c.found.push_back(numbering.add(range, key, util::mix64(key)));
      }
      c.newEnd.push_back(range.keys.size());
    }
  };

  // The ordered pass: the sequential BFS's bookkeeping, in state order. A
  // failed expansion is rethrown when its state is reached, so the error is
  // the lowest failing state's, and only if the BFS gets that far.
  ExplicitDtmc::Raw& raw = e.raw;
  std::size_t entries = 0;  // entries numbered so far
  const auto numberChunk = [&](Chunk& c, const la::KeyNumbering::Range& range) {
    c.base = entries;
    std::size_t k = 0;
    std::size_t id = 0;
    for (std::size_t s = c.begin; s < c.end && !truncated; ++s) {
      if (s == c.failed) std::rethrow_exception(c.error);
      const std::size_t i = s - c.begin;
      e.worstMassDeviation =
          std::max(e.worstMassDeviation, std::fabs(c.mass[i] - 1.0));
      e.transitions += c.rowEnd[i] - k;
      widestRow = std::max(widestRow, c.rowEnd[i] - k);
      k = c.rowEnd[i];
      id = numberUpTo(range, id, c.newEnd[i]);
      if (!truncated) h = util::hashCombine(h, c.digest[i]);
    }
    entries += c.entries.size();
  };
  // Task t copies chunk t's rows into the CSR at its offset.
  std::size_t unpublished = 0;  // chunks whose rows await their copy
  const auto copy = [&](std::size_t t) {
    const Chunk& c = chunks[t];
    for (std::size_t s = c.begin, k = 0; options.keepMatrix && s < c.end;
         ++s) {
      for (; k < c.rowEnd[s - c.begin]; ++k) {
        raw.col[c.base + k] = numbering.resolve(ranges[t], c.found[k]);
        raw.val[c.base + k] = c.entries[k].prob;
      }
      raw.rowPtr[s + 1] = c.base + k;
    }
  };
  const auto grow = [&](std::size_t end) {
    if (options.keepMatrix) {
      raw.rowPtr.resize(end + 1);
      raw.col.resize(entries);
      raw.val.resize(entries);
    }
  };

  raw.rowPtr.assign(1, 0);
  for (std::size_t levelBegin = 0; !truncated && levelBegin < numbering.size();) {
    const std::size_t levelEnd = numbering.size();
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
        c.newEnd.reserve(rows);
        c.mass.reserve(rows);
        c.digest.reserve(rows);
        c.sink.entries().reserve(widestRow);
      }
      la::runTasks(runner, std::max(tasks, unpublished), [&](std::size_t t) {
        if (t < unpublished) copy(t);
        if (t >= tasks) return;
        chunks[t].begin = w + states * t / tasks;
        chunks[t].end = w + states * (t + 1) / tasks;
        expand(chunks[t], ranges[t], tasks == 1);
      });
      unpublished = 0;
      const std::uint32_t before = numbering.size();
      numbering.claim(runner, ranges, tasks);
      for (std::size_t t = 0; t < tasks && !truncated; ++t) {
        numberChunk(chunks[t], ranges[t]);
        levelEntries += chunks[t].entries.size();
      }
      if (!truncated) grow(w + states);
      // A window without new states has no claims to publish: the next
      // window's dispatch copies its rows, saving one dispatch.
      if (!truncated && numbering.size() != before) {
        numbering.publish(runner, tasks, copy);
      } else if (!truncated) {
        unpublished = tasks;
      }
      w += states;
    }
    levelBegin = levelEnd;
  }

  e.states = numbering.size();
  e.exact = !truncated;
  e.hash = truncated ? util::hashCombine(h, util::mix64(~options.maxStates))
                     : h;
  if (truncated || !options.keepMatrix) {
    raw = {};  // the state table with it
    return;
  }
  la::runTasks(runner, unpublished, copy);
  raw.keys = std::move(numbering.keys());
  raw.initial = initialDistribution(raw.keys.size(), initial);
}

}  // namespace

Exploration explore(const Model& model, const ExploreOptions& options,
                    const la::TaskRunner& runner) {
  // Auto-parents to "engine.analyze" when the engine derives a model key.
  obs::Span span("dtmc.explore");
  const VarLayout layout = model.layout();
  Exploration e;
  exploreWith(model, layout, options, runner, layoutHash(layout), e);
  if (!e.raw.rowPtr.empty()) e.raw.layout = layout;
  e.seconds = span.stopSeconds();
  return e;
}

std::optional<Exploration> revalue(const Model& model,
                                   const Skeleton& skeleton,
                                   const ExploreOptions& options,
                                   const la::TaskRunner& runner) {
  // Auto-parents to "engine.analyze" as explore's span does.
  obs::Span span("dtmc.revalue");
  const la::CsrMatrix::Pattern& p = *skeleton.pattern;
  const std::vector<std::uint64_t>& keys = *skeleton.keys;
  const std::size_t n = keys.size();
  const VarLayout layout = model.layout();
  if (!options.keepMatrix || n > options.maxStates ||
      layout.vars() != skeleton.layout.vars()) {
    return std::nullopt;
  }

  // Each row on the runner, one task a block of the skeleton's matrix:
  // its values, its digest and its mass deviation (a block's maximum,
  // stored once: neighbouring blocks' entries share cache lines).
  Exploration e;
  e.raw.val.resize(p.col.size());
  std::vector<std::uint64_t> digest(n);
  std::vector<double> deviation(p.blockStart.size() - 1, 0.0);
  std::atomic<bool> mismatch{false};
  la::runTasks(runner, deviation.size(), [&](std::size_t b) {
    Successors sink(layout);
    State scratch;
    double worst = 0.0;
    for (std::uint32_t s = p.blockStart[b];
         s < p.blockStart[b + 1] && !mismatch.load(std::memory_order_relaxed);
         ++s) {
      const std::uint64_t begin = p.rowPtr[s];
      try {
        const double mass =
            expandRow(model, layout, options.probFloor, keys[s], scratch, sink);
        const std::vector<PackedTransition>& row = sink.entries();
        bool same = row.size() == p.rowPtr[s + 1] - begin;
        for (std::size_t k = 0; same && k < row.size(); ++k) {
          same = row[k].target == keys[p.col[begin + k]];
          e.raw.val[begin + k] = row[k].prob;
        }
        if (!same) mismatch = true;
        digest[s] = rowDigest(row);
        worst = std::max(worst, std::fabs(mass - 1.0));
      } catch (...) {
        mismatch = true;
      }
    }
    deviation[b] = worst;
  });
  if (mismatch) return std::nullopt;

  // explore's ordered pass: number the initial states, then each row's
  // first-reached targets, folding keys, numbers and digests into the hash
  // in explore's order. The model's numbering must be the skeleton's.
  std::vector<std::uint32_t> initial;
  std::uint32_t next = 0;
  for (const State& state : model.initialStates()) {
    const std::uint64_t key = layout.pack(state);
    // Initial states are few: a linear search numbers them.
    initial.push_back(static_cast<std::uint32_t>(
        std::find(keys.begin(), keys.begin() + next, key) - keys.begin()));
    if (initial.back() == next && (next == n || keys[next++] != key)) {
      return std::nullopt;
    }
  }
  std::uint64_t h = layoutHash(layout);
  for (std::uint32_t s = 0; s < next; ++s) {
    h = util::hashCombine(h, util::mix64(keys[s]));
  }
  for (const std::uint32_t number : initial) {
    h = util::hashCombine(h, util::mix64(number));
  }
  for (std::uint32_t s = 0, levelEnd = 0; s < n; ++s) {
    if (s == next) return std::nullopt;  // the BFS would stop here
    if (s == levelEnd) {
      ++e.reachabilityIterations;
      levelEnd = next;
    }
    for (std::uint64_t k = p.rowPtr[s]; k < p.rowPtr[s + 1]; ++k) {
      if (p.col[k] > next) return std::nullopt;
      if (p.col[k] == next) h = util::hashCombine(h, util::mix64(keys[next++]));
    }
    h = util::hashCombine(h, digest[s]);
  }

  e.hash = h;
  e.exact = true;
  e.states = n;
  e.transitions = p.col.size();
  e.worstMassDeviation = std::ranges::max(deviation);
  e.raw.initial = initialDistribution(n, initial);
  e.skeleton = skeleton;
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
  const Skeleton& skeleton = exploration.skeleton;
  if (raw.rowPtr.empty() && skeleton.pattern == nullptr) {
    throw std::invalid_argument(
        "buildFromExploration: the exploration kept no matrix");
  }
  if (exploration.worstMassDeviation > kMassTolerance) {
    MS_LOG_WARN("buildExplicit: worst transition-mass deviation %.3e",
                exploration.worstMassDeviation);
  }

  BuildResult result{
      skeleton.pattern != nullptr
          ? ExplicitDtmc::fromSkeleton(skeleton, std::move(raw.val),
                                       std::move(raw.initial))
          : ExplicitDtmc::fromRaw(std::move(raw)),
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
