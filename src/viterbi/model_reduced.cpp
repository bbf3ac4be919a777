#include "viterbi/model_reduced.hpp"

#include <algorithm>
#include <cassert>

namespace mimostat::viterbi {

ReducedViterbiModel::ReducedViterbiModel(const ViterbiParams& params)
    : kernel_(params) {}

std::optional<std::uint64_t> ReducedViterbiModel::fingerprint() const {
  constexpr std::uint64_t kFingerprintTag = 0x5265647563656456ull;
  return hashParams(kFingerprintTag, kernel_.params());
}

std::vector<dtmc::VarSpec> ReducedViterbiModel::variables() const {
  const ViterbiParams& p = kernel_.params();
  const int stages = numStages();
  std::vector<dtmc::VarSpec> vars;
  vars.push_back({"pm0", 0, p.pmCap});
  vars.push_back({"pm1", 0, p.pmCap});
  vars.push_back({"x0", 0, 1});
  for (int i = 0; i < stages; ++i) {
    vars.push_back({"a" + std::to_string(i), 0, 1});
  }
  for (int i = 0; i < stages; ++i) {
    vars.push_back({"b" + std::to_string(i), 0, 1});
  }
  vars.push_back({"flag", 0, 1});
  if (p.withErrorCounter) {
    vars.push_back({"errs", 0, p.errorThreshold + 1});
  }
  return vars;
}

std::vector<dtmc::State> ReducedViterbiModel::initialStates() const {
  const ViterbiParams& p = kernel_.params();
  dtmc::State s(variables().size(), 0);
  s[idxPm1()] = p.pmCap;
  return {s};
}

void ReducedViterbiModel::transitions(const dtmc::State& s,
                                      dtmc::Successors& out) const {
  const ViterbiParams& p = kernel_.params();
  const int stages = numStages();
  const std::int32_t pm0 = s[idxPm0()];
  const std::int32_t pm1 = s[idxPm1()];
  const int xPrev = s[idxX0()];

  for (int xNew = 0; xNew < 2; ++xNew) {
    for (int q = 0; q < p.quantLevels; ++q) {
      const double prob = 0.5 * kernel_.cellProb(xNew, xPrev, q);
      if (prob <= 0.0) continue;

      const AcsResult acs = kernel_.acs(pm0, pm1, q);
      dtmc::State& next = out.scratch(s);
      next[idxPm0()] = acs.pm0;
      next[idxPm1()] = acs.pm1;
      next[idxX0()] = xNew;

      // New stage-0 relative bits: the pointer taken from the true current
      // state (xNew) is correct iff it equals the true previous bit (xPrev).
      const int fromCorrect = (xNew == 0) ? acs.prev0 : acs.prev1;
      const int fromWrong = (xNew == 0) ? acs.prev1 : acs.prev0;
      for (int i = stages - 1; i >= 1; --i) {
        next[idxA(i)] = s[idxA(i - 1)];
        next[idxB(i)] = s[idxB(i - 1)];
      }
      next[idxA(0)] = (fromCorrect != xPrev) ? 1 : 0;
      next[idxB(0)] = (fromWrong != xPrev) ? 1 : 0;

      // Traceback in relative coordinates.
      int e = (acs.tracebackStart != xNew) ? 1 : 0;
      for (int i = 0; i < stages; ++i) {
        e = e ? next[idxB(i)] : next[idxA(i)];
      }
      next[idxFlag()] = e;
      if (p.withErrorCounter) {
        next[idxErrs()] =
            std::min<std::int32_t>(s[idxErrs()] + e, p.errorThreshold + 1);
      }
      out.add(prob, next);
    }
  }
}

bool ReducedViterbiModel::atom(const dtmc::State& s,
                               std::string_view name) const {
  if (name == "error") return s[idxFlag()] == 1;
  return false;
}

double ReducedViterbiModel::stateReward(const dtmc::State& s,
                                        std::string_view name) const {
  if (name.empty() || name == "default" || name == "flag") {
    return static_cast<double>(s[idxFlag()]);
  }
  return 0.0;
}

}  // namespace mimostat::viterbi
