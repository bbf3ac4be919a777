#include "dtmc/model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mimostat::dtmc {

bool Model::atom(const State& /*s*/, std::string_view /*name*/) const {
  return false;
}

double Model::stateReward(const State& /*s*/, std::string_view /*name*/) const {
  return 0.0;
}

double normalizeTransitions(std::vector<PackedTransition>& row, double floor) {
  if (row.empty()) return 0.0;
  // Sort by target and merge duplicates in place — unless the row is
  // strictly ascending already (MIMO adds its rows so): neither step would
  // change a bit of it.
  const auto notBefore = [](const PackedTransition& a,
                            const PackedTransition& b) {
    return a.target >= b.target;
  };
  if (std::adjacent_find(row.begin(), row.end(), notBefore) != row.end()) {
    std::sort(row.begin(), row.end(),
              [](const PackedTransition& a, const PackedTransition& b) {
                return a.target < b.target;
              });
    std::size_t out = 0;
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (row[i].target == row[out].target) {
        row[out].prob += row[i].prob;
      } else {
        row[++out] = row[i];
      }
    }
    row.resize(out + 1);
  }

  double mass = 0.0;
  for (const auto& t : row) mass += t.prob;

  if (floor > 0.0) {
    std::erase_if(row,
                  [floor](const PackedTransition& t) { return t.prob < floor; });
    if (row.empty()) {
      std::ostringstream message;
      message << "probability floor " << floor
              << " removes every transition of a row";
      throw std::invalid_argument(message.str());
    }
    double kept = 0.0;
    for (const auto& t : row) kept += t.prob;
    if (kept > 0.0 && kept != mass) {
      const double scale = mass / kept;
      for (auto& t : row) t.prob *= scale;
    }
  }
  return mass;
}

}  // namespace mimostat::dtmc
