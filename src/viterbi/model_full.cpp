#include "viterbi/model_full.hpp"

#include <algorithm>
#include <cassert>

namespace mimostat::viterbi {

FullViterbiModel::FullViterbiModel(const ViterbiParams& params)
    : kernel_(params) {}

std::optional<std::uint64_t> FullViterbiModel::fingerprint() const {
  constexpr std::uint64_t kFingerprintTag = 0x46756C6C56697465ull;
  return hashParams(kFingerprintTag, kernel_.params());
}

std::vector<dtmc::VarSpec> FullViterbiModel::variables() const {
  const ViterbiParams& p = kernel_.params();
  const int L = p.tracebackLength;
  std::vector<dtmc::VarSpec> vars;
  vars.push_back({"pm0", 0, p.pmCap});
  vars.push_back({"pm1", 0, p.pmCap});
  for (int i = 0; i < L; ++i) {
    vars.push_back({"x" + std::to_string(i), 0, 1});
  }
  for (int i = 0; i < L; ++i) {
    vars.push_back({"prev0_" + std::to_string(i), 0, 1});
  }
  for (int i = 0; i < L; ++i) {
    vars.push_back({"prev1_" + std::to_string(i), 0, 1});
  }
  vars.push_back({"flag", 0, 1});
  if (p.withErrorCounter) {
    vars.push_back({"errs", 0, p.errorThreshold + 1});
  }
  return vars;
}

std::vector<dtmc::State> FullViterbiModel::initialStates() const {
  const ViterbiParams& p = kernel_.params();
  dtmc::State s(variables().size(), 0);
  s[idxPm1()] = p.pmCap;  // transmitter starts in internal state 0
  return {s};
}

void FullViterbiModel::transitions(const dtmc::State& s,
                                   dtmc::Successors& out) const {
  const ViterbiParams& p = kernel_.params();
  const int L = p.tracebackLength;
  const std::int32_t pm0 = s[idxPm0()];
  const std::int32_t pm1 = s[idxPm1()];
  const int xPrev = s[idxX(0)];

  for (int xNew = 0; xNew < 2; ++xNew) {
    for (int q = 0; q < p.quantLevels; ++q) {
      const double prob = 0.5 * kernel_.cellProb(xNew, xPrev, q);
      if (prob <= 0.0) continue;

      const AcsResult acs = kernel_.acs(pm0, pm1, q);
      dtmc::State& next = out.scratch(s);
      next[idxPm0()] = acs.pm0;
      next[idxPm1()] = acs.pm1;
      // Writeback: advance the trellis by one stage.
      for (int i = L - 1; i >= 1; --i) {
        next[idxX(i)] = s[idxX(i - 1)];
        next[idxPrev0(i)] = s[idxPrev0(i - 1)];
        next[idxPrev1(i)] = s[idxPrev1(i - 1)];
      }
      next[idxX(0)] = xNew;
      next[idxPrev0(0)] = acs.prev0;
      next[idxPrev1(0)] = acs.prev1;

      // Traceback: L-1 hops through the *new* stages.
      int state = acs.tracebackStart;
      for (int i = 0; i < L - 1; ++i) {
        state = (state == 0) ? next[idxPrev0(i)] : next[idxPrev1(i)];
      }
      const int decoded = state;
      const int flag = (decoded != next[idxX(L - 1)]) ? 1 : 0;
      next[idxFlag()] = flag;
      if (p.withErrorCounter) {
        next[idxErrs()] =
            std::min<std::int32_t>(s[idxErrs()] + flag, p.errorThreshold + 1);
      }
      out.add(prob, next);
    }
  }
}

bool FullViterbiModel::atom(const dtmc::State& s, std::string_view name) const {
  if (name == "error") return s[idxFlag()] == 1;
  return false;
}

double FullViterbiModel::stateReward(const dtmc::State& s,
                                     std::string_view name) const {
  if (name.empty() || name == "default" || name == "flag") {
    return static_cast<double>(s[idxFlag()]);
  }
  return 0.0;
}

}  // namespace mimostat::viterbi
