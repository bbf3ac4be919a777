#include "lump_verify.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "mc/checker.hpp"

namespace mimostat::lump {

Partition partitionFromMap(const std::vector<std::uint32_t>& blockOf) {
  Partition p;
  p.blockOf = blockOf;
  std::uint32_t maxBlock = 0;
  for (const auto b : blockOf) maxBlock = std::max(maxBlock, b);
  p.numBlocks = blockOf.empty() ? 0 : maxBlock + 1;
  return p;
}

LumpabilityReport verifyLumpable(const dtmc::ExplicitDtmc& dtmc,
                                 const Partition& partition, double tol) {
  LumpabilityReport report;
  const std::uint32_t n = dtmc.numStates();

  // Aggregated row signature per state (target block -> prob).
  const auto signatureOf = [&](std::uint32_t s) {
    std::unordered_map<std::uint32_t, double> sig;
    for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1]; ++k) {
      sig[partition.blockOf[dtmc.col()[k]]] += dtmc.val()[k];
    }
    return sig;
  };

  // Compare every state's signature against its block's first member.
  std::vector<std::uint32_t> firstOfBlock(partition.numBlocks, ~0u);
  std::vector<std::unordered_map<std::uint32_t, double>> refSig(
      partition.numBlocks);
  for (std::uint32_t s = 0; s < n; ++s) {
    const std::uint32_t b = partition.blockOf[s];
    if (firstOfBlock[b] == ~0u) {
      firstOfBlock[b] = s;
      refSig[b] = signatureOf(s);
      continue;
    }
    const auto sig = signatureOf(s);
    double mismatch = 0.0;
    // lint:allow(unordered-iteration: max-reduction, order-independent)
    for (const auto& [block, prob] : sig) {
      const auto it = refSig[b].find(block);
      const double refProb = it == refSig[b].end() ? 0.0 : it->second;
      mismatch = std::max(mismatch, std::fabs(prob - refProb));
    }
    // lint:allow(unordered-iteration: max-reduction, order-independent)
    for (const auto& [block, prob] : refSig[b]) {
      if (sig.find(block) == sig.end()) {
        mismatch = std::max(mismatch, std::fabs(prob));
      }
    }
    if (mismatch > report.worstMismatch) {
      report.worstMismatch = mismatch;
      report.witnessA = firstOfBlock[b];
      report.witnessB = s;
    }
  }
  report.lumpable = report.worstMismatch <= tol;
  return report;
}

std::vector<PropertyComparison> compareProperties(
    const dtmc::ExplicitDtmc& fullDtmc, const dtmc::Model& fullModel,
    const dtmc::ExplicitDtmc& reducedDtmc, const dtmc::Model& reducedModel,
    const std::vector<std::string>& properties) {
  const mc::Checker fullChecker(fullDtmc, fullModel);
  const mc::Checker reducedChecker(reducedDtmc, reducedModel);
  std::vector<PropertyComparison> results;
  results.reserve(properties.size());
  for (const auto& prop : properties) {
    PropertyComparison cmp;
    cmp.property = prop;
    cmp.fullValue = fullChecker.check(prop).value;
    cmp.reducedValue = reducedChecker.check(prop).value;
    cmp.absDiff = std::fabs(cmp.fullValue - cmp.reducedValue);
    results.push_back(std::move(cmp));
  }
  return results;
}

}  // namespace mimostat::lump
