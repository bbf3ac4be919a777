#include "core/metrics.hpp"

namespace mimostat::core {

std::string metricProperty(MetricKind kind, std::uint64_t horizon,
                           int threshold) {
  switch (kind) {
    case MetricKind::kBestCase:
      return "P=? [ G<=" + std::to_string(horizon) + " !flag ]";
    case MetricKind::kAverageCase:
    case MetricKind::kConvergence:
      return "R=? [ I=" + std::to_string(horizon) + " ]";
    case MetricKind::kWorstCase:
      return "P=? [ F<=" + std::to_string(horizon) + " errs>" +
             std::to_string(threshold) + " ]";
  }
  return {};
}

}  // namespace mimostat::core
