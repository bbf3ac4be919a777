#include "core/report.hpp"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace mimostat::core {

std::string formatValue(double value) {
  char buffer[64];
  if (value != 0.0 && (std::fabs(value) < 1e-3 || std::fabs(value) >= 1e6)) {
    std::snprintf(buffer, sizeof(buffer), "%.3e", value);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  }
  return buffer;
}

std::string formatReportTable(const std::string& title,
                              const std::vector<GuaranteeReport>& reports) {
  // Streamed so a long property widens its own row and never truncates the
  // value column or the row's newline.
  std::ostringstream os;
  os << title << '\n';
  os << std::left << std::setw(34) << "Property" << std::right << ' '
     << std::setw(12) << "States" << ' ' << std::setw(14) << "Transitions"
     << ' ' << std::setw(10) << "Time(s)" << ' ' << std::setw(12) << "Result"
     << '\n';
  os << std::fixed << std::setprecision(2);
  for (const auto& r : reports) {
    os << std::left << std::setw(34) << r.property << std::right << ' '
       << std::setw(12) << r.states << ' ' << std::setw(14) << r.transitions
       << ' ' << std::setw(10) << r.totalSeconds() << ' ' << std::setw(12)
       << formatValue(r.value) << '\n';
  }
  return os.str();
}

}  // namespace mimostat::core
