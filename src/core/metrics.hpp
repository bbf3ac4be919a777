// The paper's performance-metric catalogue (§IV-A-2): best, average and
// worst case error metrics plus the traceback-convergence metric, each
// expressible as a pCTL property string.
#pragma once

#include <cstdint>
#include <string>

namespace mimostat::core {

enum class MetricKind {
  kBestCase,     ///< P1: P=? [ G<=T !flag ]   — no error within T steps
  kAverageCase,  ///< P2: R=? [ I=T ]          — BER at steady state
  kWorstCase,    ///< P3: P=? [ F<=T errs>k ]  — more than k errors within T
  kConvergence,  ///< C1: R=? [ I=T ]          — non-convergence probability
};

/// Build the pCTL property string for a metric.
/// @param horizon    the time bound T
/// @param threshold  worst-case error-count threshold k (kWorstCase only)
[[nodiscard]] std::string metricProperty(MetricKind kind, std::uint64_t horizon,
                                         int threshold = 1);

}  // namespace mimostat::core
