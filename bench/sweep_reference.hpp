// Shared by the parameter-study bench drivers: re-answer every property of
// a study's one engine request by an independent path and report the
// largest absolute difference. 0.0 means bit-identical; NaN (a failed
// request or property) propagates so it can never read as a pass.
//
// R=?[I=T] properties are re-answered with a raw left la::spmm loop: T
// multiplies from pi_0, no mc::TransientSweep and so no stationary stop,
// then pi_T . r summed left to right. A wrong fixed-point exit in the
// batched sweep shows up here as a nonzero difference. Any other property
// is re-checked with a fresh mc::Checker, the per-call loop.
//
// The bitwise comparison holds on the unreduced path, so the drivers pin
// reduction off for it; defaultPathWithinTolerance re-sends the request on
// the default path, which quotients their long plans, and checks it within
// the reduction tolerance of the same loop.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "engine/engine.hpp"
#include "la/spmv.hpp"
#include "mc/checker.hpp"
#include "reduce/reduce.hpp"

namespace mimostat::bench {

/// pi_T . r by T raw left multiplies from the initial distribution.
inline double rawInstantaneousReward(const dtmc::ExplicitDtmc& dtmc,
                                     const std::vector<double>& reward,
                                     std::uint64_t steps) {
  std::vector<double> pi = dtmc.initialDistribution();
  std::vector<double> next(pi.size());
  for (std::uint64_t t = 0; t < steps; ++t) {
    la::spmm(dtmc.matrix(), pi, 1, next, {}, la::Side::kLeft);
    pi.swap(next);
  }
  double acc = 0.0;
  for (std::size_t s = 0; s < pi.size(); ++s) acc += pi[s] * reward[s];
  return acc;
}

/// max |response.results[i].value - reference(properties[i])|.
inline double sweepVsHandRolledMaxDiff(
    const std::vector<std::string>& properties,
    const engine::AnalysisResponse& response, const dtmc::ExplicitDtmc& dtmc,
    const dtmc::Model& model) {
  // A failed property has no reference to compare against (it may be
  // unparsable) — report NaN rather than re-checking it.
  if (!response.ok() || response.results.size() != properties.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const mc::Checker checker(dtmc, model);
  double maxDiff = 0.0;
  for (std::size_t i = 0; i < properties.size(); ++i) {
    const pctl::Property property = checker.parsedProperty(properties[i]);
    const bool instantaneous =
        property.kind == pctl::Property::Kind::kReward &&
        property.reward.kind == pctl::RewardQuery::Kind::kInstantaneous;
    const double reference =
        instantaneous
            ? rawInstantaneousReward(
                  dtmc, dtmc.evalReward(model, property.reward.rewardName),
                  property.reward.bound)
            : checker.check(property).value;
    const double diff = std::fabs(response.results[i].value - reference);
    if (std::isnan(diff)) return std::numeric_limits<double>::quiet_NaN();
    if (diff > maxDiff) maxDiff = diff;
  }
  return maxDiff;
}

/// Re-send `request` with the quotient on kAuto: the response must have
/// been answered on the quotient, within 1e-9 of the raw loop. Prints one
/// line.
inline bool defaultPathWithinTolerance(engine::AnalysisEngine& engine,
                                       engine::AnalysisRequest request,
                                       const dtmc::ExplicitDtmc& dtmc,
                                       const dtmc::Model& model) {
  request.options.reduction.quotient = reduce::Toggle::kAuto;
  const engine::AnalysisResponse response = engine.analyze(request);
  const double maxDiff =
      sweepVsHandRolledMaxDiff(request.properties, response, dtmc, model);
  const bool ok = response.reduction.applied && maxDiff <= 1e-9;
  std::printf("Default path: quotient %llu -> %llu states, max|diff| = %.3g "
              "(applied, within 1e-9: %s)\n",
              static_cast<unsigned long long>(response.reduction.statesBefore),
              static_cast<unsigned long long>(response.reduction.statesAfter),
              maxDiff, ok ? "yes" : "NO");
  return ok;
}

}  // namespace mimostat::bench
