// Verification helpers for reductions: the test suite's reference checkers
// (no library path calls them, so they live here).
//
// verifyLumpable discharges the paper's "Part B" proof obligation
// numerically: a partition is (strongly/ordinarily) lumpable iff every state
// in a block has the same aggregated probability into every target block
// (Eq. 12). compareProperties cross-checks property values between a full
// model and a hand-reduced model — the end-to-end soundness check used by
// the test suite on small instances.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "lump/bisim.hpp"

namespace mimostat::lump {

struct LumpabilityReport {
  bool lumpable = true;
  /// Worst block-to-block probability mismatch found.
  double worstMismatch = 0.0;
  /// A witness state pair when not lumpable.
  std::uint32_t witnessA = 0;
  std::uint32_t witnessB = 0;
};

/// Check that `partition` is lumpable on `dtmc` within tolerance `tol`.
[[nodiscard]] LumpabilityReport verifyLumpable(const dtmc::ExplicitDtmc& dtmc,
                                               const Partition& partition,
                                               double tol = 1e-9);

/// Build a Partition from an explicit state -> block map.
[[nodiscard]] Partition partitionFromMap(
    const std::vector<std::uint32_t>& blockOf);

struct PropertyComparison {
  std::string property;
  double fullValue = 0.0;
  double reducedValue = 0.0;
  double absDiff = 0.0;
};

/// Check the same pCTL property strings on two (model, dtmc) pairs and
/// report the differences. Used to validate that a reduction preserves the
/// properties of interest.
[[nodiscard]] std::vector<PropertyComparison> compareProperties(
    const dtmc::ExplicitDtmc& fullDtmc, const dtmc::Model& fullModel,
    const dtmc::ExplicitDtmc& reducedDtmc, const dtmc::Model& reducedModel,
    const std::vector<std::string>& properties);

}  // namespace mimostat::lump
