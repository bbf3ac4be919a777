#include "viterbi/model_convergence.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>

#include "util/hash.hpp"

namespace mimostat::viterbi {

ConvergenceViterbiModel::ConvergenceViterbiModel(const ViterbiParams& params,
                                                 int maxCount)
    : kernel_(params), maxCount_(maxCount) {
  assert(maxCount_ > params.tracebackLength);
}

std::optional<std::uint64_t> ConvergenceViterbiModel::fingerprint() const {
  constexpr std::uint64_t kFingerprintTag = 0x436F6E7656697465ull;
  return util::hashCombineInt(hashParams(kFingerprintTag, kernel_.params()),
                              maxCount_);
}

std::vector<dtmc::VarSpec> ConvergenceViterbiModel::variables() const {
  const ViterbiParams& p = kernel_.params();
  return {
      {"pm0", 0, p.pmCap},
      {"pm1", 0, p.pmCap},
      {"x0", 0, 1},
      {"count", 0, maxCount_},
  };
}

std::vector<dtmc::State> ConvergenceViterbiModel::initialStates() const {
  const ViterbiParams& p = kernel_.params();
  dtmc::State s(variables().size(), 0);
  s[idxPm1()] = p.pmCap;
  return {s};
}

void ConvergenceViterbiModel::transitions(const dtmc::State& s,
                                          dtmc::Successors& out) const {
  const ViterbiParams& p = kernel_.params();
  const std::int32_t pm0 = s[idxPm0()];
  const std::int32_t pm1 = s[idxPm1()];
  const int xPrev = s[idxX0()];
  const std::int32_t count = s[idxCount()];

  for (int xNew = 0; xNew < 2; ++xNew) {
    for (int q = 0; q < p.quantLevels; ++q) {
      const double prob = 0.5 * kernel_.cellProb(xNew, xPrev, q);
      if (prob <= 0.0) continue;
      const AcsResult acs = kernel_.acs(pm0, pm1, q);
      dtmc::State& next = out.scratch(s);
      next[idxPm0()] = acs.pm0;
      next[idxPm1()] = acs.pm1;
      next[idxX0()] = xNew;
      const bool convergent = acs.prev0 == acs.prev1;
      next[idxCount()] =
          convergent ? 0 : std::min<std::int32_t>(count + 1, maxCount_);
      out.add(prob, next);
    }
  }
}

bool ConvergenceViterbiModel::atom(const dtmc::State& s,
                                   std::string_view name) const {
  if (name == "nonconv") {
    return s[idxCount()] > kernel_.params().tracebackLength;
  }
  return false;
}

double ConvergenceViterbiModel::stateReward(const dtmc::State& s,
                                            std::string_view name) const {
  if (name.empty() || name == "default") {
    return s[idxCount()] > kernel_.params().tracebackLength ? 1.0 : 0.0;
  }
  if (name.size() > 2 && name.substr(0, 2) == "nc") {
    int k = 0;
    const auto* begin = name.data() + 2;
    const auto* end = name.data() + name.size();
    if (std::from_chars(begin, end, k).ec == std::errc{} && k < maxCount_) {
      return s[idxCount()] > k ? 1.0 : 0.0;
    }
  }
  return 0.0;
}

}  // namespace mimostat::viterbi
