#include "lump/bisim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace mimostat::lump {

namespace {

/// Hash of a state's signature: sorted (target block, bucketed prob) pairs,
/// merged per block.
std::uint64_t signatureHash(const dtmc::ExplicitDtmc& dtmc, std::uint32_t s,
                            const std::vector<std::uint32_t>& blockOf,
                            double resolution,
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
    const auto bucket =
        static_cast<std::int64_t>(std::llround(prob / resolution));
    hash = util::hashCombine(hash, util::mix64(block));
    hash = util::hashCombine(hash, util::mix64(static_cast<std::uint64_t>(bucket)));
  }
  return hash;
}

}  // namespace

InitialKeys keysFromMasksAndRewards(
    std::size_t numStates, const std::vector<const la::BitVector*>& masks,
    const std::vector<const std::vector<double>*>& rewards,
    const la::TaskRunner& runner, double rewardResolution) {
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
        const auto bucket = static_cast<std::int64_t>(
            std::llround((*reward)[s] / rewardResolution));
        keys[s] = util::hashCombine(
            keys[s], util::mix64(static_cast<std::uint64_t>(bucket)));
      }
    }
  });
  return keys;
}

LumpResult lump(const dtmc::ExplicitDtmc& dtmc, const InitialKeys& initialKeys,
                const LumpOptions& options, const la::TaskRunner& runner) {
  obs::Span span("lump.bisim");
  const std::uint32_t n = dtmc.numStates();
  assert(initialKeys.size() == n);

  LumpResult result;
  std::vector<std::uint32_t>& blockOf = result.partition.blockOf;
  blockOf.assign(n, 0);

  // Initial partition from the keys.
  {
    std::unordered_map<std::uint64_t, std::uint32_t> blockIds;
    for (std::uint32_t s = 0; s < n; ++s) {
      auto [it, inserted] = blockIds.try_emplace(
          initialKeys[s], static_cast<std::uint32_t>(blockIds.size()));
      blockOf[s] = it->second;
    }
    result.partition.numBlocks = static_cast<std::uint32_t>(blockIds.size());
  }

  // Signature refinement to fixpoint. Each round hashes every state's
  // signature — a pure function of the state and the previous round's
  // partition — over the matrix's row blocks (on `runner` when the matrix
  // is large enough), then numbers the new blocks in state order on this
  // thread, so the partition is the same at any pool size.
  const la::CsrMatrix& matrix = dtmc.matrix();
  const bool fanOut = runner != nullptr && matrix.blockCount() > 1 &&
                      dtmc.numTransitions() >=
                          la::Exec::kDefaultParallelThresholdNnz;
  const std::size_t ranges = fanOut ? matrix.blockCount() : 1;
  std::vector<std::uint64_t> signature(n);
  std::vector<std::uint32_t> newBlockOf(n);
  for (std::uint32_t round = 0; round < options.maxRefinementRounds; ++round) {
    ++result.refinementRounds;
    la::runTasks(runner, ranges, [&](std::size_t r) {
      std::vector<std::pair<std::uint32_t, double>> scratch;
      const std::uint32_t end = fanOut ? matrix.blockEnd(r) : n;
      for (std::uint32_t s = fanOut ? matrix.blockBegin(r) : 0; s < end; ++s) {
        signature[s] = util::hashCombine(
            util::mix64(blockOf[s]),
            signatureHash(dtmc, s, blockOf, options.probResolution, scratch));
      }
    });
    std::unordered_map<std::uint64_t, std::uint32_t> blockIds;
    blockIds.reserve(result.partition.numBlocks * 2);
    for (std::uint32_t s = 0; s < n; ++s) {
      auto [it, inserted] = blockIds.try_emplace(
          signature[s], static_cast<std::uint32_t>(blockIds.size()));
      newBlockOf[s] = it->second;
    }
    const auto newCount = static_cast<std::uint32_t>(blockIds.size());
    blockOf.swap(newBlockOf);
    if (newCount == result.partition.numBlocks) break;
    result.partition.numBlocks = newCount;
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
  result.seconds = span.stopSeconds();
  return result;
}

}  // namespace mimostat::lump
