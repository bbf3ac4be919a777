#include "dtmc/model.hpp"

namespace mimostat::dtmc {

bool Model::atom(const State& /*s*/, std::string_view /*name*/) const {
  return false;
}

double Model::stateReward(const State& /*s*/, std::string_view /*name*/) const {
  return 0.0;
}

}  // namespace mimostat::dtmc
