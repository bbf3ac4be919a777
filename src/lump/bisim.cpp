#include "lump/bisim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "la/numbering.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace mimostat::lump {

namespace {

/// Bucket width of transition masses and rewards: values in one bucket hash
/// alike, so floating-point noise far below it does not split equal blocks.
constexpr double kResolution = 1e-12;

/// Bucket of `value` at kResolution, as hash input.
std::uint64_t bucketOf(double value) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::llround(value / kResolution)));
}

/// Hash of a state's signature: sorted (target block, bucketed prob) pairs,
/// merged per block.
std::uint64_t signatureHash(const dtmc::ExplicitDtmc& dtmc, std::uint32_t s,
                            const std::vector<std::uint32_t>& blockOf,
                            std::vector<std::pair<std::uint32_t, double>>& scratch) {
  scratch.clear();
  for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1]; ++k) {
    scratch.emplace_back(blockOf[dtmc.col()[k]], dtmc.val()[k]);
  }
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t hash = 0x9E3779B97F4A7C15ULL;
  std::size_t i = 0;
  while (i < scratch.size()) {
    const std::uint32_t block = scratch[i].first;
    double prob = 0.0;
    while (i < scratch.size() && scratch[i].first == block) {
      prob += scratch[i].second;
      ++i;
    }
    hash = util::hashCombine(hash, util::mix64(block));
    hash = util::hashCombine(hash, util::mix64(bucketOf(prob)));
  }
  return hash;
}

/// Numbers key(s, scratch) over the states in order of first occurrence
/// into `out` on la::KeyNumbering, one range per row block of `matrix`
/// when `fanOut`; returns how many distinct keys there are.
template <class Key>
std::uint32_t numberStates(const la::TaskRunner& runner,
                           const la::CsrMatrix& matrix, bool fanOut,
                           std::vector<std::uint32_t>& out, const Key& key) {
  const std::size_t count = fanOut ? matrix.blockCount() : 1;
  const auto begin = [&](std::size_t r) {
    return fanOut ? matrix.blockBegin(r) : 0;
  };
  const auto end = [&](std::size_t r) {
    return fanOut ? matrix.blockEnd(r) : static_cast<std::uint32_t>(out.size());
  };
  la::KeyNumbering numbering;
  std::vector<la::KeyNumbering::Range> ranges(count);
  la::runTasks(runner, count, [&](std::size_t r) {
    ranges[r].reset(count == 1);
    std::vector<std::pair<std::uint32_t, double>> scratch;
    for (std::uint32_t s = begin(r); s < end(r); ++s) {
      const std::uint64_t k = key(s, scratch);
      out[s] = numbering.add(ranges[r], k, util::mix64(k));
    }
  });
  numbering.claim(runner, ranges, count);
  for (const la::KeyNumbering::Range& range : ranges) {
    for (std::size_t id = 0; id < range.keys.size(); ++id) {
      numbering.assign(range, id);
    }
  }
  numbering.publish(runner, count, [&](std::size_t r) {
    for (std::uint32_t s = begin(r); s < end(r); ++s) {
      out[s] = numbering.resolve(ranges[r], out[s]);
    }
  });
  return numbering.size();
}

}  // namespace

InitialKeys keysFromMasksAndRewards(
    std::size_t numStates, const std::vector<const la::BitVector*>& masks,
    const std::vector<const std::vector<double>*>& rewards,
    const la::TaskRunner& runner) {
  InitialKeys keys(numStates, 0x9E3779B97F4A7C15ULL);
  la::runStateRanges(runner, numStates, [&](std::size_t begin,
                                            std::size_t end) {
    for (std::size_t m = 0; m < masks.size(); ++m) {
      assert(masks[m] != nullptr && masks[m]->size() == numStates);
      for (std::size_t s = begin; s < end; ++s) {
        keys[s] = util::hashCombine(keys[s], masks[m]->get(s) ? m + 1 : 0);
      }
    }
    for (const std::vector<double>* reward : rewards) {
      assert(reward != nullptr && reward->size() == numStates);
      for (std::size_t s = begin; s < end; ++s) {
        keys[s] =
            util::hashCombine(keys[s], util::mix64(bucketOf((*reward)[s])));
      }
    }
  });
  return keys;
}

LumpResult lump(const dtmc::ExplicitDtmc& dtmc, const InitialKeys& initialKeys,
                const la::TaskRunner& runner) {
  obs::Span span("lump.bisim");
  const std::uint32_t n = dtmc.numStates();
  assert(initialKeys.size() == n);

  LumpResult result;
  std::vector<std::uint32_t>& blockOf = result.partition.blockOf;
  blockOf.assign(n, 0);

  // Signature refinement to fixpoint, from the initial keys' partition.
  // Each round hashes every state's signature (a pure function of the state
  // and the previous round's partition) and numbers the blocks in order of
  // first occurrence, over the matrix's row blocks on `runner` when the
  // matrix is large enough, so the partition is the same at any pool size.
  // A signature includes the state's block, so a round only splits blocks;
  // the loop stops at the first round that adds none (the partition is
  // stable), at most n rounds in.
  const la::CsrMatrix& matrix = dtmc.matrix();
  const bool fanOut = runner != nullptr && matrix.blockCount() > 1 &&
                      dtmc.numTransitions() >=
                          la::Exec::kDefaultParallelThresholdNnz;
  result.partition.numBlocks = numberStates(
      runner, matrix, fanOut, blockOf,
      [&](std::uint32_t s, auto&) { return initialKeys[s]; });
  std::vector<std::uint32_t> newBlockOf(n);
  for (;;) {
    ++result.refinementRounds;
    const std::uint32_t count = numberStates(
        runner, matrix, fanOut, newBlockOf,
        [&](std::uint32_t s, auto& scratch) {
          return util::hashCombine(util::mix64(blockOf[s]),
                                   signatureHash(dtmc, s, blockOf, scratch));
        });
    blockOf.swap(newBlockOf);
    if (count == result.partition.numBlocks) break;
    result.partition.numBlocks = count;
  }

  // Representatives: first state of each block.
  result.representative.assign(result.partition.numBlocks, ~0u);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (result.representative[blockOf[s]] == ~0u) {
      result.representative[blockOf[s]] = s;
    }
  }

  // Quotient matrix: aggregate each representative's row per target block.
  dtmc::ExplicitDtmc::Raw raw;
  raw.layout = dtmc.varLayout();
  raw.rowPtr.reserve(result.partition.numBlocks + 1);
  raw.rowPtr.push_back(0);
  std::vector<double> rowAccum(result.partition.numBlocks, 0.0);
  std::vector<std::uint32_t> touched;
  for (std::uint32_t b = 0; b < result.partition.numBlocks; ++b) {
    const std::uint32_t rep = result.representative[b];
    touched.clear();
    for (std::uint64_t k = dtmc.rowPtr()[rep]; k < dtmc.rowPtr()[rep + 1]; ++k) {
      const std::uint32_t tb = blockOf[dtmc.col()[k]];
      if (rowAccum[tb] == 0.0) touched.push_back(tb);
      rowAccum[tb] += dtmc.val()[k];
    }
    std::sort(touched.begin(), touched.end());
    for (const std::uint32_t tb : touched) {
      raw.col.push_back(tb);
      raw.val.push_back(rowAccum[tb]);
      rowAccum[tb] = 0.0;
    }
    raw.rowPtr.push_back(raw.col.size());
  }

  // Initial distribution: block mass = sum of member masses.
  raw.initial.assign(result.partition.numBlocks, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    raw.initial[blockOf[s]] += dtmc.initialDistribution()[s];
  }

  // Quotient state table: representatives (keeps VarCmp properties usable),
  // copied in the original table's form.
  dtmc.copyStatesInto(result.representative, raw);

  result.quotient = dtmc::ExplicitDtmc::fromRaw(std::move(raw));
  return result;
}

}  // namespace mimostat::lump
