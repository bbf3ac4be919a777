// End-to-end reduction verification — the paper's §IV-A-3/4 as the test
// suite's reference check (no library path calls it, so it lives here).
//
// A ReductionCase pairs a full model with its hand-reduced counterpart and
// the properties the reduction must preserve. verifyReduction() builds both,
// checks every property on both, and additionally verifies that the
// partition induced by the abstraction (when provided) is lumpable —
// the numeric analogue of the paper's Strong Lumping Theorem argument.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/model.hpp"
#include "lump_verify.hpp"

namespace mimostat::core {

/// Maps a full-model state to its reduced-model representative (F_abs).
using AbstractionFn = std::function<dtmc::State(const dtmc::State&)>;

struct ReductionVerdict {
  bool propertiesPreserved = true;
  bool partitionLumpable = true;  ///< only meaningful when F_abs provided
  double worstPropertyDiff = 0.0;
  double worstLumpMismatch = 0.0;
  std::uint64_t fullStates = 0;
  std::uint64_t reducedStates = 0;
  std::vector<lump::PropertyComparison> comparisons;

  [[nodiscard]] bool sound() const {
    return propertiesPreserved && partitionLumpable;
  }
  [[nodiscard]] double reductionFactor() const {
    return reducedStates == 0
               ? 0.0
               : static_cast<double>(fullStates) /
                     static_cast<double>(reducedStates);
  }
};

/// Build both models, compare the properties, and (when an abstraction is
/// given) verify lumpability of the induced partition on the full model.
[[nodiscard]] ReductionVerdict verifyReduction(
    const dtmc::Model& fullModel, const dtmc::Model& reducedModel,
    const std::vector<std::string>& properties,
    const AbstractionFn& abstraction = nullptr, double tolerance = 1e-9,
    const dtmc::BuildOptions& buildOptions = {});

}  // namespace mimostat::core
