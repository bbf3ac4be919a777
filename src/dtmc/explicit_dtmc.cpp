#include "dtmc/explicit_dtmc.hpp"

#include <stdexcept>

namespace mimostat::dtmc {

Skeleton ExplicitDtmc::detachSkeleton(Raw& raw) {
  if (raw.rowPtr.empty()) {
    throw std::invalid_argument("ExplicitDtmc::fromRaw: empty rowPtr");
  }
  const auto rows = static_cast<std::uint32_t>(raw.rowPtr.size() - 1);
  return {la::CsrMatrix::makePattern(std::move(raw.rowPtr), std::move(raw.col),
                                     rows),
          std::make_shared<const std::vector<std::uint64_t>>(
              std::move(raw.keys)),
          std::move(raw.layout)};
}

ExplicitDtmc ExplicitDtmc::fromRaw(Raw raw) {
  // detachSkeleton leaves val and initial in place for the other arguments.
  return fromSkeleton(detachSkeleton(raw), std::move(raw.val),
                      std::move(raw.initial));
}

ExplicitDtmc ExplicitDtmc::fromSkeleton(const Skeleton& skeleton,
                                        std::vector<double> val,
                                        std::vector<double> initial) {
  const std::size_t rows = skeleton.pattern->rowPtr.size() - 1;
  if (initial.size() != rows || skeleton.keys->size() != rows) {
    throw std::invalid_argument(
        "ExplicitDtmc: the initial distribution or the state table length "
        "differs from the row count");
  }
  ExplicitDtmc d;
  d.matrix_ = la::CsrMatrix::fromPattern(skeleton.pattern, std::move(val));
  d.initial_ = std::move(initial);
  d.keys_ = skeleton.keys;
  d.layout_ = skeleton.layout;
  return d;
}

void ExplicitDtmc::copyStatesInto(const std::vector<std::uint32_t>& indices,
                                  Raw& raw) const {
  raw.keys.reserve(raw.keys.size() + indices.size());
  for (const std::uint32_t i : indices) raw.keys.push_back((*keys_)[i]);
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
