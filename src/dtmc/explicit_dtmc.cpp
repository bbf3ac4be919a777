#include "dtmc/explicit_dtmc.hpp"

#include <cassert>
#include <cmath>

namespace mimostat::dtmc {

ExplicitDtmc ExplicitDtmc::fromRaw(Raw raw) {
  ExplicitDtmc d;
  assert(!raw.rowPtr.empty());
  assert(raw.initial.size() == raw.rowPtr.size() - 1);
  const auto numStates = static_cast<std::uint32_t>(raw.rowPtr.size() - 1);
  d.matrix_ = la::CsrMatrix::fromCsr(std::move(raw.rowPtr), std::move(raw.col),
                                     std::move(raw.val), numStates);
  d.initial_ = std::move(raw.initial);
  d.states_ = std::move(raw.states);
  d.layout_ = std::move(raw.layout);
  return d;
}

la::BitVector ExplicitDtmc::evalAtom(const Model& model,
                                     std::string_view name) const {
  la::BitVector truth(numStates());
  for (std::uint32_t i = 0; i < numStates(); ++i) {
    if (model.atom(states_[i], name)) truth.set(i);
  }
  return truth;
}

std::vector<double> ExplicitDtmc::evalReward(const Model& model,
                                             std::string_view name) const {
  std::vector<double> reward(numStates());
  for (std::uint32_t i = 0; i < numStates(); ++i) {
    reward[i] = model.stateReward(states_[i], name);
  }
  return reward;
}

double ExplicitDtmc::maxRowDeviation() const {
  const auto& rowPtr = matrix_.rowPtr();
  const auto& val = matrix_.val();
  double worst = 0.0;
  for (std::uint32_t s = 0; s < numStates(); ++s) {
    double sum = 0.0;
    for (std::uint64_t k = rowPtr[s]; k < rowPtr[s + 1]; ++k) sum += val[k];
    worst = std::max(worst, std::fabs(sum - 1.0));
  }
  return worst;
}

}  // namespace mimostat::dtmc
