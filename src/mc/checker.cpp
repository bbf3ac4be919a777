#include "mc/checker.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "la/spmv.hpp"
#include "mc/steady.hpp"
#include "mc/transient.hpp"
#include "mc/unbounded.hpp"
#include "obs/trace.hpp"

namespace mimostat::mc {

double fromInitial(const dtmc::ExplicitDtmc& dtmc,
                   const std::vector<double>& stateValues) {
  const auto& init = dtmc.initialDistribution();
  assert(stateValues.size() == init.size());
  double acc = 0.0;
  for (std::size_t s = 0; s < init.size(); ++s) {
    if (init[s] > 0.0) acc += init[s] * stateValues[s];
  }
  return acc;
}

Checker::Checker(const dtmc::ExplicitDtmc& dtmc, const dtmc::Model& model,
                 CheckOptions options)
    : dtmc_(dtmc), model_(model), options_(options) {}

la::BitVector Checker::evalStateFormula(const pctl::StateFormula& f) const {
  using Kind = pctl::StateFormula::Kind;
  const std::uint32_t n = dtmc_.numStates();
  la::BitVector truth(n);

  switch (f.kind) {
    case Kind::kTrue:
      truth.setAll();
      return truth;
    case Kind::kFalse:
      return truth;
    case Kind::kAtom: {
      // Resolve against a variable first (bare identifier sugar: var != 0),
      // then against the model's named atoms.
      const auto varIdx = dtmc_.varLayout().tryIndexOf(f.name);
      if (varIdx != dtmc::VarLayout::npos) {
        for (std::uint32_t s = 0; s < n; ++s) {
          if (dtmc_.varValue(s, varIdx) != 0) truth.set(s);
        }
        return truth;
      }
      return dtmc_.evalAtom(model_, f.name, options_.exec.runner);
    }
    case Kind::kVarCmp: {
      const auto varIdx = dtmc_.varLayout().tryIndexOf(f.name);
      if (varIdx == dtmc::VarLayout::npos) {
        throw std::runtime_error("pCTL: unknown state variable '" + f.name +
                                 "'");
      }
      for (std::uint32_t s = 0; s < n; ++s) {
        if (pctl::evalCmp(f.op, dtmc_.varValue(s, varIdx), f.value)) {
          truth.set(s);
        }
      }
      return truth;
    }
    case Kind::kNot:
      return ~evalStateFormula(*f.lhs);
    case Kind::kAnd: {
      truth = evalStateFormula(*f.lhs);
      truth &= evalStateFormula(*f.rhs);
      return truth;
    }
    case Kind::kOr: {
      truth = evalStateFormula(*f.lhs);
      truth |= evalStateFormula(*f.rhs);
      return truth;
    }
  }
  throw std::logic_error("unreachable state-formula kind");
}

CheckResult Checker::checkSingle(
    const pctl::Property& property, const pctl::EvalPlan::Single& single,
    const std::vector<la::BitVector>& maskValues) const {
  // Explicit parent: singles run on pool threads via the caller's runner.
  // Solver spans ("la.solve.*") opened inside reachProb & co. nest under
  // this one through the tracer's same-thread tracking.
  obs::Span span("mc.single", options_.traceParent);
  CheckResult result;

  // State sets come from the plan's shared mask table — evaluated once per
  // checkAll, shared with the bounded group's columns and with any sibling
  // single over the same set.
  const auto maskAt = [&](std::size_t m) -> const la::BitVector& {
    return maskValues[m];
  };

  if (property.kind == pctl::Property::Kind::kProb) {
    const pctl::PathFormula& path = property.prob.path;
    if (pctl::isTimeBounded(path)) {
      throw std::logic_error(
          "mc::Checker: time-bounded formulas run in the bounded group");
    }
    // The plan interned the *negated* operand of G: G phi = 1 - F !phi.
    const la::BitVector& psi = maskAt(single.psiMask);
    ReachResult reach;
    if (path.kind == pctl::PathFormula::Kind::kUntil) {
      const la::BitVector phiTrue(dtmc_.numStates(), true);
      const la::BitVector& phi = single.phiMask == pctl::EvalPlan::kNoMask
                                     ? phiTrue
                                     : maskAt(single.phiMask);
      reach = options_.elimination ? untilProbByElimination(dtmc_, phi, psi)
                                   : untilProb(dtmc_, phi, psi);
    } else {
      reach = options_.elimination ? reachProbByElimination(dtmc_, psi)
                                   : reachProb(dtmc_, psi);
    }
    result.solver = std::move(reach.solver);
    std::vector<double> values = std::move(reach.stateValues);
    if (path.kind == pctl::PathFormula::Kind::kGlobally) {
      for (double& v : values) v = 1.0 - v;
    }
    result.value = fromInitial(dtmc_, values);
    result.stateValues = std::move(values);
    if (!property.prob.isQuery) {
      result.satisfied = pctl::evalCmp(property.prob.boundOp, result.value,
                                       property.prob.boundValue);
    }
  } else {
    const pctl::RewardQuery& rq = property.reward;
    const std::vector<double> reward =
        dtmc_.evalReward(model_, rq.rewardName, options_.exec.runner);
    switch (rq.kind) {
      case pctl::RewardQuery::Kind::kInstantaneous:
      case pctl::RewardQuery::Kind::kCumulative:
        throw std::logic_error(
            "mc::Checker: I=/C<= rewards run in the transient group");
      case pctl::RewardQuery::Kind::kSteadyState: {
        la::PowerResult ss = steadyStateDistribution(dtmc_, options_.exec);
        result.value = steadyStateReward(ss, reward);
        result.solver = std::move(ss.stats);
        break;
      }
      case pctl::RewardQuery::Kind::kReachability: {
        const la::BitVector& psi = maskAt(single.psiMask);
        ReachResult reach =
            options_.elimination
                ? expectedReachRewardByElimination(dtmc_, reward, psi)
                : expectedReachReward(dtmc_, reward, psi);
        result.solver = std::move(reach.solver);
        result.value = fromInitial(dtmc_, reach.stateValues);
        result.stateValues = std::move(reach.stateValues);
        break;
      }
    }
    if (!rq.isQuery) {
      result.satisfied =
          pctl::evalCmp(rq.boundOp, result.value, rq.boundValue);
    }
  }

  result.checkSeconds = span.stopSeconds();
  return result;
}

void Checker::runBoundedGroup(
    const pctl::EvalPlan& plan, const std::vector<pctl::Property>& properties,
    const std::vector<la::BitVector>& maskValues,
    const std::vector<std::string>& maskErrors,
    std::vector<CheckResult>& results, pctl::PlanStats* planStats) const {
  obs::Span groupSpan("mc.boundedTraversal", options_.traceParent);
  const std::uint32_t n = dtmc_.numStates();
  constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  // Columns whose masks failed to evaluate never join the traversal;
  // their readouts inherit the error.
  std::vector<std::string> columnError(plan.columns.size());
  std::vector<std::size_t> live;  // plan column ids currently traversing
  std::vector<std::size_t> pos(plan.columns.size(), kNoPos);
  std::uint64_t maxSteps = 0;
  for (std::size_t c = 0; c < plan.columns.size(); ++c) {
    const pctl::EvalPlan::Column& column = plan.columns[c];
    for (const std::size_t m : {column.psiMask, column.phiMask}) {
      if (m != pctl::EvalPlan::kNoMask && !maskErrors[m].empty() &&
          columnError[c].empty()) {
        columnError[c] = maskErrors[m];
      }
    }
    if (!columnError[c].empty()) continue;
    pos[c] = live.size();
    live.push_back(c);
    maxSteps = std::max(maxSteps, column.steps);
  }

  // Lay out the traversal state: each live column of the row-major
  // n x width X buffer starts at the psi indicator; the column's packed
  // mask freezes psi states at 1.0 and !phi states at 0.0 (their initial
  // values), which reproduces the per-formula bounded-until update bit
  // for bit. An unmasked column (the X operator) carries an all-zero
  // BitVector — the kernel's "no freeze" convention.
  std::size_t width = live.size();
  std::vector<double> X(static_cast<std::size_t>(n) * width, 0.0);
  std::vector<la::BitVector> colMasks(width);
  for (std::size_t j = 0; j < width; ++j) {
    const pctl::EvalPlan::Column& column = plan.columns[live[j]];
    const la::BitVector& psi = maskValues[column.psiMask];
    psi.forEachSetBit([&](std::size_t s) { X[s * width + j] = 1.0; });
    if (column.masked) {
      la::BitVector m = psi;
      if (column.phiMask != pctl::EvalPlan::kNoMask) {
        m |= ~maskValues[column.phiMask];
      }
      colMasks[j] = std::move(m);
    } else {
      colMasks[j] = la::BitVector(n, false);
    }
  }

  const auto record = [&](const pctl::EvalPlan::BoundedReadout& readout) {
    const std::size_t j = pos[readout.column];
    std::vector<double> values(n);
    for (std::uint32_t s = 0; s < n; ++s) {
      values[s] = X[s * width + j];
    }
    if (readout.complement) {
      for (double& v : values) v = 1.0 - v;
    }
    CheckResult& out = results[readout.property];
    out.value = fromInitial(dtmc_, values);
    out.stateValues = std::move(values);
    const pctl::ProbQuery& pq = properties[readout.property].prob;
    if (!pq.isQuery) {
      out.satisfied = pctl::evalCmp(pq.boundOp, out.value, pq.boundValue);
    }
  };

  // Surface column errors first so the traversal only serves live readouts
  // (an error column never extends maxSteps above).
  for (const pctl::EvalPlan::BoundedReadout& readout : plan.bounded) {
    if (!columnError[readout.column].empty()) {
      results[readout.property].error = columnError[readout.column];
    }
  }

  // One masked traversal for the live columns; readouts sample their
  // column when the traversal passes their bound. A column past its last
  // readout is compacted out instead of advancing to the group maximum —
  // repacking never changes a surviving column's values (each column's
  // accumulation sequence depends only on its own entries), so the total
  // matrix work is sum of per-column bounds while the traversal count
  // stays ~1 per step.
  std::vector<double> scratch;
  la::SpmmStats stepStats;
  std::uint64_t spmmPanels = 0;
  for (std::uint64_t t = 0;; ++t) {
    for (const pctl::EvalPlan::BoundedReadout& readout : plan.bounded) {
      if (readout.bound == t && columnError[readout.column].empty()) {
        record(readout);
      }
    }
    if (t >= maxSteps) break;
    bool anyDone = false;
    for (const std::size_t c : live) {
      anyDone = anyDone || plan.columns[c].steps <= t;
    }
    if (anyDone) {
      std::vector<std::size_t> keep;
      for (const std::size_t c : live) {
        if (plan.columns[c].steps > t) keep.push_back(c);
      }
      const std::size_t newWidth = keep.size();
      scratch.resize(static_cast<std::size_t>(n) * newWidth);
      std::vector<la::BitVector> keptMasks(newWidth);
      for (std::uint32_t s = 0; s < n; ++s) {
        for (std::size_t j = 0; j < newWidth; ++j) {
          scratch[s * newWidth + j] = X[s * width + pos[keep[j]]];
        }
      }
      // Surviving columns keep their whole packed mask — repacking moves
      // BitVectors, never touches bits.
      for (std::size_t j = 0; j < newWidth; ++j) {
        keptMasks[j] = std::move(colMasks[pos[keep[j]]]);
      }
      for (const std::size_t c : live) pos[c] = kNoPos;
      for (std::size_t j = 0; j < newWidth; ++j) pos[keep[j]] = j;
      live = std::move(keep);
      width = newWidth;
      X.swap(scratch);
      colMasks = std::move(keptMasks);
    }
    if (obs::Tracer::global().detailEnabled()) {
      // Opt-in per-step span (Tracer::setDetailEnabled): one event per
      // traversal step is too hot for default tracing but invaluable when
      // profiling the masked SpMM itself.
      obs::Span step("mc.boundedTraversal.step");
      la::spmm(dtmc_.matrix(), X, width, scratch, options_.exec,
               la::Side::kRight, &colMasks, &stepStats);
    } else {
      la::spmm(dtmc_.matrix(), X, width, scratch, options_.exec,
               la::Side::kRight, &colMasks, &stepStats);
    }
    spmmPanels += stepStats.panels;
    X.swap(scratch);
  }
  if (planStats != nullptr) {
    // Compaction narrows the tile between steps, so the per-step panel
    // counts genuinely vary — the sum is the group's total CSR traversals.
    planStats->spmmPanels = spmmPanels;
  }

  const double seconds = groupSpan.stopSeconds();
  const bool shared = plan.bounded.size() > 1;
  for (const pctl::EvalPlan::BoundedReadout& readout : plan.bounded) {
    // Errored readouts never joined the traversal: no shared-task
    // attribution for them.
    if (!columnError[readout.column].empty()) continue;
    results[readout.property].checkSeconds = seconds;
    results[readout.property].batched = shared;
  }
}

void Checker::runTransientGroup(const pctl::EvalPlan& plan,
                                const std::vector<pctl::Property>& properties,
                                std::vector<CheckResult>& results,
                                pctl::PlanStats* planStats) const {
  obs::Span groupSpan("mc.transientSweep", options_.traceParent);
  // One forward sweep serves every I=/C<= property: reward vectors are
  // evaluated once per distinct reward structure, instantaneous values
  // are sampled when the sweep passes their horizon, and cumulative
  // accumulators add the per-step contribution in the same t-ascending
  // order as a dedicated per-call sweep — so values are bit-identical.
  // A reward structure that fails to evaluate errors only the entries
  // that reference it (same isolation as the bounded group's masks).
  std::vector<std::vector<double>> rewards(plan.rewardNames.size());
  std::vector<std::string> rewardErrors(plan.rewardNames.size());
  for (std::size_t r = 0; r < plan.rewardNames.size(); ++r) {
    try {
      rewards[r] =
          dtmc_.evalReward(model_, plan.rewardNames[r], options_.exec.runner);
    } catch (const std::exception& e) {
      rewardErrors[r] = e.what();
    }
  }
  const auto live = [&](const pctl::EvalPlan::TransientEntry& entry) {
    return rewardErrors[entry.reward].empty();
  };
  std::uint64_t lastStep = 0;
  std::size_t liveCount = 0;
  for (const pctl::EvalPlan::TransientEntry& entry : plan.transients) {
    if (!live(entry)) {
      results[entry.property].error = rewardErrors[entry.reward];
      continue;
    }
    ++liveCount;
    if (!entry.cumulative) {
      lastStep = std::max(lastStep, entry.bound);
    } else if (entry.bound > 0) {
      lastStep = std::max(lastStep, entry.bound - 1);
    }
  }
  if (liveCount == 0) return;

  std::vector<double> cumulative(plan.transients.size(), 0.0);
  TransientSweep sweep(dtmc_, options_.exec);
  // pi_t . r is computed at most once per distinct reward structure per
  // step, shared by every property that needs it at that step. Once the
  // sweep is stationary pi_t no longer changes, so the cached dots stay
  // valid for every later step.
  std::vector<double> stepDot(rewards.size(), 0.0);
  std::vector<char> stepDotValid(rewards.size(), 0);
  const auto dotFor = [&](std::size_t r) {
    if (!stepDotValid[r]) {
      stepDot[r] = sweep.expectedReward(rewards[r]);
      stepDotValid[r] = 1;
    }
    return stepDot[r];
  };
  for (std::uint64_t t = 0;;) {
    if (!sweep.stationary()) {
      std::fill(stepDotValid.begin(), stepDotValid.end(), 0);
    }
    // The next step any entry reads: t+1 while a cumulative entry still
    // accumulates, else the nearest instantaneous horizon ahead.
    std::uint64_t next = lastStep;
    for (std::size_t g = 0; g < plan.transients.size(); ++g) {
      const pctl::EvalPlan::TransientEntry& entry = plan.transients[g];
      if (!live(entry)) continue;
      if (!entry.cumulative) {
        if (entry.bound == t) {
          results[entry.property].value = dotFor(entry.reward);
        } else if (entry.bound > t) {
          next = std::min(next, entry.bound);
        }
      } else if (t < entry.bound) {
        // Added once per step even when stationary: the same addition
        // sequence as an unbatched sweep, so the same bits.
        cumulative[g] += dotFor(entry.reward);
        if (t + 1 < entry.bound) next = t + 1;
      }
    }
    if (t == lastStep) break;
    // Once stationary, pi no longer changes and no entry reads a step
    // before `next`, so jump there.
    t = sweep.stationary() ? next : t + 1;
    sweep.advanceTo(t);
  }
  if (planStats != nullptr) {
    // Written only here (the group's own task); spmmPanels is the bounded
    // group's field, so the two groups never write the same member.
    planStats->transientMultiplies = sweep.multiplies();
  }

  const double seconds = groupSpan.stopSeconds();
  const bool shared = liveCount > 1;
  for (std::size_t g = 0; g < plan.transients.size(); ++g) {
    const pctl::EvalPlan::TransientEntry& entry = plan.transients[g];
    if (!live(entry)) continue;
    CheckResult& out = results[entry.property];
    if (entry.cumulative) out.value = cumulative[g];
    const pctl::RewardQuery& rq = properties[entry.property].reward;
    if (!rq.isQuery) {
      out.satisfied = pctl::evalCmp(rq.boundOp, out.value, rq.boundValue);
    }
    out.batched = shared;
    out.checkSeconds = seconds;
  }
}

std::vector<CheckResult> Checker::checkAll(
    const std::vector<pctl::Property>& properties, pctl::PlanStats* planStats,
    const la::TaskRunner& runner) const {
  // Plan phase: compile the property set and evaluate the shared mask
  // table. Runs on the calling thread, before any group task is scheduled.
  obs::Span planSpan("pctl.plan", options_.traceParent);
  const pctl::EvalPlan plan = pctl::buildPlan(properties);
  std::vector<CheckResult> results(properties.size());

  // Shared atom masks, each evaluated once; failures (unknown atoms or
  // variables) are captured per mask and surface on exactly the
  // properties whose columns or singles reference the broken mask.
  std::vector<la::BitVector> maskValues(plan.masks.size());
  std::vector<std::string> maskErrors(plan.masks.size());
  for (std::size_t m = 0; m < plan.masks.size(); ++m) {
    try {
      maskValues[m] = evalStateFormula(*plan.masks[m]);
    } catch (const std::exception& e) {
      maskErrors[m] = e.what();
    }
  }
  const double planSeconds = planSpan.stopSeconds();

  if (planStats != nullptr) {
    pctl::PlanStats stats = plan.stats;
    // Mask-table footprint: packed words actually held vs the byte-per-
    // state representation these masks replaced (~8x).
    for (const la::BitVector& mask : maskValues) {
      stats.maskBytesPacked += mask.approxBytes();
      stats.maskBytesByte += mask.size();
    }
    stats.planSeconds = planSeconds;
    // The dispatch target is a request-level resolution (Exec::simd
    // override, else the process-wide active target) — record it even when
    // no bounded group runs, so diagnostics always say what la:: used.
    stats.simdTarget =
        la::simdTargetName(la::resolveSimdTarget(options_.exec.simd));
    *planStats = stats;
  }

  std::vector<std::function<void()>> tasks;
  tasks.reserve(plan.singles.size() + 2);
  for (const pctl::EvalPlan::Single& single : plan.singles) {
    const std::size_t i = single.property;
    // A single whose interned state set failed to evaluate inherits the
    // mask's error without scheduling a task — same isolation as the
    // bounded group's columns.
    std::string maskError;
    for (const std::size_t m : {single.psiMask, single.phiMask}) {
      if (m != pctl::EvalPlan::kNoMask && !maskErrors[m].empty() &&
          maskError.empty()) {
        maskError = maskErrors[m];
      }
    }
    if (!maskError.empty()) {
      results[i].error = std::move(maskError);
      continue;
    }
    tasks.push_back([this, &properties, &results, &maskValues, single, i] {
      try {
        results[i] = checkSingle(properties[i], single, maskValues);
      } catch (const std::exception& e) {
        results[i].error = e.what();
      }
    });
  }
  if (!plan.bounded.empty()) {
    tasks.push_back([this, &plan, &properties, &maskValues, &maskErrors,
                     &results, planStats] {
      try {
        // planStats' spmmPanels is written only here (the group's own
        // task); checkAll reads it back after the runner joins.
        runBoundedGroup(plan, properties, maskValues, maskErrors, results,
                        planStats);
      } catch (const std::exception& e) {
        for (const pctl::EvalPlan::BoundedReadout& r : plan.bounded) {
          if (results[r.property].error.empty()) {
            results[r.property].error = e.what();
          }
        }
      }
    });
  }
  if (!plan.transients.empty()) {
    tasks.push_back([this, &plan, &properties, &results, planStats] {
      try {
        runTransientGroup(plan, properties, results, planStats);
      } catch (const std::exception& e) {
        for (const pctl::EvalPlan::TransientEntry& entry : plan.transients) {
          if (results[entry.property].error.empty()) {
            results[entry.property].error = e.what();
          }
        }
      }
    });
  }

  if (runner != nullptr && tasks.size() > 1) {
    runner(std::move(tasks));
  } else {
    for (const auto& task : tasks) task();
  }

  // Structurally identical singles ran once: copy the representative's
  // result (deterministic, so the copy equals a recompute bit for bit) and
  // mark both ends of the share as batched.
  for (const auto& [duplicate, representative] : plan.singleDuplicates) {
    results[duplicate] = results[representative];
    if (results[representative].ok()) {
      results[representative].batched = true;
      results[duplicate].batched = true;
    }
  }
  return results;
}

CheckResult Checker::check(const pctl::Property& property) const {
  std::vector<CheckResult> results = checkAll({property});
  CheckResult& result = results.front();
  if (!result.error.empty()) throw std::runtime_error(result.error);
  return result;
}

pctl::Property Checker::parsedProperty(std::string_view propertyText) const {
  return pctl::PropertyCache::global().get(propertyText);
}

CheckResult Checker::check(std::string_view propertyText) const {
  return check(parsedProperty(propertyText));
}

}  // namespace mimostat::mc
