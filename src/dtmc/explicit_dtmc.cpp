#include "dtmc/explicit_dtmc.hpp"

#include <stdexcept>

namespace mimostat::dtmc {

ExplicitDtmc ExplicitDtmc::fromRaw(Raw raw) {
  if (raw.rowPtr.empty()) {
    throw std::invalid_argument("ExplicitDtmc::fromRaw: empty rowPtr");
  }
  const std::size_t rows = raw.rowPtr.size() - 1;
  if (raw.initial.size() != rows) {
    throw std::invalid_argument(
        "ExplicitDtmc::fromRaw: initial distribution length differs from "
        "the row count");
  }
  if (raw.keys.size() != rows) {
    throw std::invalid_argument(
        "ExplicitDtmc::fromRaw: state table length differs from the row "
        "count");
  }
  ExplicitDtmc d;
  d.matrix_ = la::CsrMatrix::fromCsr(std::move(raw.rowPtr), std::move(raw.col),
                                     std::move(raw.val),
                                     static_cast<std::uint32_t>(rows));
  d.initial_ = std::move(raw.initial);
  d.keys_ = std::move(raw.keys);
  d.layout_ = std::move(raw.layout);
  return d;
}

void ExplicitDtmc::copyStatesInto(const std::vector<std::uint32_t>& indices,
                                  Raw& raw) const {
  raw.keys.reserve(raw.keys.size() + indices.size());
  for (const std::uint32_t i : indices) raw.keys.push_back(keys_[i]);
}

la::BitVector ExplicitDtmc::evalAtom(const Model& model, std::string_view name,
                                     const la::TaskRunner& runner) const {
  la::BitVector truth(numStates());
  forEachState(runner, [&](std::uint32_t i, const State& s) {
    if (model.atom(s, name)) truth.set(i);
  });
  return truth;
}

std::vector<double> ExplicitDtmc::evalReward(
    const Model& model, std::string_view name,
    const la::TaskRunner& runner) const {
  std::vector<double> reward(numStates());
  forEachState(runner, [&](std::uint32_t i, const State& s) {
    reward[i] = model.stateReward(s, name);
  });
  return reward;
}

}  // namespace mimostat::dtmc
