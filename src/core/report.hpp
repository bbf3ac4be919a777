// Guarantee reports: the value of a checked metric together with the model
// statistics the paper's tables report (state counts, reachability
// iterations, construction + checking time).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mimostat::core {

struct GuaranteeReport {
  std::string property;
  double value = 0.0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint32_t reachabilityIterations = 0;
  double buildSeconds = 0.0;
  double checkSeconds = 0.0;

  [[nodiscard]] double totalSeconds() const {
    return buildSeconds + checkSeconds;
  }
};

/// Format a table of reports in the paper's style. Column set is fixed:
/// property, states, time, result.
[[nodiscard]] std::string formatReportTable(
    const std::string& title, const std::vector<GuaranteeReport>& reports);

/// Format one scientific-notation value the way the paper prints results.
[[nodiscard]] std::string formatValue(double value);

}  // namespace mimostat::core
