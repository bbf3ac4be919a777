// Shared by the SweepSpec-ported bench drivers: re-answer every sweep row
// by an independent path and report the largest absolute difference. 0.0
// means bit-identical; NaN (e.g. a failed row exported as NaN) propagates
// so it can never read as a pass.
//
// R=?[I=T] rows are re-answered with a raw left la::spmm loop: T multiplies
// from pi_0, no mc::TransientSweep and so no stationary stop, then pi_T . r
// summed left to right. A wrong fixed-point exit in the sweep shows up here
// as a nonzero difference. Any other row is re-checked with a fresh
// mc::Checker, the per-call loop the sweep replaced.
//
// The bitwise comparison holds on the unreduced path, so the drivers pin
// reduction off for it; defaultPathWithinTolerance re-runs the spec on the
// default path, which quotients their long plans, and checks it within the
// reduction tolerance of the same loop.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "la/spmv.hpp"
#include "mc/checker.hpp"
#include "reduce/reduce.hpp"
#include "sweep/result_table.hpp"
#include "sweep/runner.hpp"

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

inline double sweepVsHandRolledMaxDiff(const sweep::ResultTable& table,
                                       const dtmc::ExplicitDtmc& dtmc,
                                       const dtmc::Model& model) {
  const mc::Checker checker(dtmc, model);
  double maxDiff = 0.0;
  for (const auto& row : table.rows()) {
    // A failed row has no reference to compare against (its property may be
    // empty or unparsable) — report NaN rather than re-checking it.
    if (!row.ok()) return std::numeric_limits<double>::quiet_NaN();
    const pctl::Property property = checker.parsedProperty(row.property);
    const bool instantaneous =
        property.kind == pctl::Property::Kind::kReward &&
        property.reward.kind == pctl::RewardQuery::Kind::kInstantaneous;
    const double reference =
        instantaneous
            ? rawInstantaneousReward(
                  dtmc, dtmc.evalReward(model, property.reward.rewardName),
                  property.reward.bound)
            : checker.check(property).value;
    const double diff = std::fabs(row.value - reference);
    if (std::isnan(diff)) return std::numeric_limits<double>::quiet_NaN();
    if (diff > maxDiff) maxDiff = diff;
  }
  return maxDiff;
}

/// Re-run `spec` with the quotient on kAuto: every row must have been
/// answered on the quotient, within 1e-9 of the raw loop. Prints one line.
inline bool defaultPathWithinTolerance(const sweep::Runner& runner,
                                       sweep::SweepSpec spec,
                                       const dtmc::ExplicitDtmc& dtmc,
                                       const dtmc::Model& model) {
  spec.options.reduction.quotient = reduce::Toggle::kAuto;
  const sweep::ResultTable table = runner.run(spec);
  bool applied = !table.rows().empty();
  for (const auto& row : table.rows()) {
    applied = applied && row.reduction.applied;
  }
  const double maxDiff = sweepVsHandRolledMaxDiff(table, dtmc, model);
  const bool ok = applied && maxDiff <= 1e-9;
  const sweep::ResultRow* first =
      table.rows().empty() ? nullptr : &table.rows().front();
  std::printf("Default path: quotient %llu -> %llu states, max|diff| = %.3g "
              "(applied, within 1e-9: %s)\n",
              static_cast<unsigned long long>(
                  first ? first->reduction.statesBefore : 0),
              static_cast<unsigned long long>(
                  first ? first->reduction.statesAfter : 0),
              maxDiff, ok ? "yes" : "NO");
  return ok;
}

}  // namespace mimostat::bench
