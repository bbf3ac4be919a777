#include "pctl/plan.hpp"

#include <algorithm>

#include "pctl/hash.hpp"

namespace mimostat::pctl {

namespace {

/// Hash-then-verify interning of state subformulas into plan.masks.
struct MaskInterner {
  EvalPlan& plan;
  std::vector<std::uint64_t> hashes;

  std::size_t intern(const StateFormulaPtr& f) {
    const std::uint64_t h = structuralHash(*f);
    for (std::size_t m = 0; m < plan.masks.size(); ++m) {
      if (hashes[m] == h && structuralEqual(*plan.masks[m], *f)) {
        ++plan.stats.tasksDeduped;
        return m;
      }
    }
    plan.masks.push_back(f);
    hashes.push_back(h);
    return plan.masks.size() - 1;
  }
};

}  // namespace

std::uint64_t EvalPlan::boundedSteps() const {
  std::uint64_t steps = 0;
  for (const Column& c : columns) steps = std::max(steps, c.steps);
  return steps;
}

std::uint64_t EvalPlan::transientSteps() const {
  std::uint64_t steps = 0;
  for (const TransientEntry& e : transients) {
    if (!e.cumulative) {
      steps = std::max(steps, e.bound);
    } else if (e.bound > 0) {
      steps = std::max(steps, e.bound - 1);
    }
  }
  return steps;
}

EvalPlan buildPlan(const std::vector<Property>& properties) {
  EvalPlan plan;
  MaskInterner masks{plan, {}};
  std::vector<std::uint64_t> singleHashes;

  // Structurally identical single tasks run once; repeats copy the
  // representative's (deterministic) result. The duplicate check runs
  // BEFORE mask interning so a repeat counts one dedup, not two. A
  // representative's state subformulas intern into the shared mask table
  // (phiMask/psiMask per Single's contract), so singles dedup their set
  // evaluations against the bounded columns and against each other.
  const auto addSingle = [&](std::size_t i) {
    const std::uint64_t h = structuralHash(properties[i]);
    for (std::size_t j = 0; j < plan.singles.size(); ++j) {
      if (singleHashes[j] == h &&
          structuralEqual(properties[plan.singles[j].property],
                          properties[i])) {
        ++plan.stats.tasksDeduped;
        plan.singleDuplicates.emplace_back(i, plan.singles[j].property);
        return;
      }
    }
    EvalPlan::Single single;
    single.property = i;
    const Property& p = properties[i];
    if (p.kind == Property::Kind::kProb) {
      const PathFormula& path = p.prob.path;
      switch (path.kind) {
        case PathFormula::Kind::kNext:
        case PathFormula::Kind::kFinally:
          single.psiMask = masks.intern(path.lhs);
          break;
        case PathFormula::Kind::kGlobally:
          // G phi answers as 1 - reach(!phi); interning the negated operand
          // lets it share a mask with F !phi / U..!phi queries.
          single.psiMask = masks.intern(negated(path.lhs));
          break;
        case PathFormula::Kind::kUntil:
          if (!isTriviallyTrue(*path.lhs)) {
            single.phiMask = masks.intern(path.lhs);
          }
          single.psiMask = masks.intern(path.rhs);
          break;
      }
    } else if (p.reward.kind == RewardQuery::Kind::kReachability) {
      single.psiMask = masks.intern(p.reward.target);
    }
    plan.singles.push_back(single);
    singleHashes.push_back(h);
  };

  const auto internColumn = [&](std::size_t phiMask, std::size_t psiMask,
                                bool masked,
                                std::uint64_t steps) -> std::size_t {
    for (std::size_t c = 0; c < plan.columns.size(); ++c) {
      EvalPlan::Column& col = plan.columns[c];
      if (col.phiMask == phiMask && col.psiMask == psiMask &&
          col.masked == masked) {
        ++plan.stats.tasksDeduped;
        col.steps = std::max(col.steps, steps);
        return c;
      }
    }
    plan.columns.push_back({phiMask, psiMask, masked, steps});
    return plan.columns.size() - 1;
  };

  for (std::size_t i = 0; i < properties.size(); ++i) {
    const Property& p = properties[i];

    if (p.kind == Property::Kind::kProb) {
      const PathFormula& path = p.prob.path;
      if (isTimeBounded(path)) {
        EvalPlan::BoundedReadout readout;
        readout.property = i;
        switch (path.kind) {
          case PathFormula::Kind::kNext:
            // X psi: one unmasked propagation step of the psi indicator.
            readout.bound = 1;
            readout.column = internColumn(EvalPlan::kNoMask,
                                          masks.intern(path.lhs),
                                          /*masked=*/false, readout.bound);
            break;
          case PathFormula::Kind::kFinally:
            readout.bound = *path.bound;
            readout.column = internColumn(EvalPlan::kNoMask,
                                          masks.intern(path.lhs),
                                          /*masked=*/true, readout.bound);
            break;
          case PathFormula::Kind::kGlobally:
            // G<=k phi = 1 - F<=k !phi; negated() folds double negation so
            // "G<=k !flag" and "F<=k flag" share one column.
            readout.bound = *path.bound;
            readout.complement = true;
            readout.column = internColumn(EvalPlan::kNoMask,
                                          masks.intern(negated(path.lhs)),
                                          /*masked=*/true, readout.bound);
            break;
          case PathFormula::Kind::kUntil: {
            readout.bound = *path.bound;
            // true U<=k psi is F<=k psi — same column key.
            const std::size_t phiMask = isTriviallyTrue(*path.lhs)
                                            ? EvalPlan::kNoMask
                                            : masks.intern(path.lhs);
            readout.column = internColumn(phiMask, masks.intern(path.rhs),
                                          /*masked=*/true, readout.bound);
            break;
          }
        }
        plan.bounded.push_back(readout);
        continue;
      }
      addSingle(i);
      continue;
    }

    const RewardQuery& rq = p.reward;
    const bool horizonBatchable =
        rq.kind == RewardQuery::Kind::kInstantaneous ||
        rq.kind == RewardQuery::Kind::kCumulative;
    if (horizonBatchable) {
      EvalPlan::TransientEntry entry;
      entry.property = i;
      entry.cumulative = rq.kind == RewardQuery::Kind::kCumulative;
      entry.bound = rq.bound;
      const auto found = std::find(plan.rewardNames.begin(),
                                   plan.rewardNames.end(), rq.rewardName);
      if (found == plan.rewardNames.end()) {
        plan.rewardNames.push_back(rq.rewardName);
        entry.reward = plan.rewardNames.size() - 1;
      } else {
        ++plan.stats.tasksDeduped;
        entry.reward =
            static_cast<std::size_t>(found - plan.rewardNames.begin());
      }
      plan.transients.push_back(entry);
      continue;
    }
    addSingle(i);
  }

  plan.stats.tasksPlanned = plan.masks.size() + plan.columns.size() +
                            plan.rewardNames.size() +
                            (plan.bounded.empty() ? 0 : 1) +
                            (plan.transients.empty() ? 0 : 1) +
                            plan.singles.size();

  // Per-step traversals avoided vs per-formula evaluation: each group
  // member alone would advance its own traversal `bound` (readouts) or
  // `horizon` (transients) steps; the shared traversal advances to the
  // group maximum once.
  if (!plan.bounded.empty()) {
    std::uint64_t perFormula = 0;
    for (const EvalPlan::BoundedReadout& r : plan.bounded) {
      perFormula += r.bound;
    }
    plan.stats.traversalsSaved += perFormula - plan.boundedSteps();
  }
  if (!plan.transients.empty()) {
    std::uint64_t perFormula = 0;
    for (const EvalPlan::TransientEntry& e : plan.transients) {
      if (!e.cumulative) {
        perFormula += e.bound;
      } else if (e.bound > 0) {
        perFormula += e.bound - 1;
      }
    }
    plan.stats.traversalsSaved += perFormula - plan.transientSteps();
  }
  return plan;
}

}  // namespace mimostat::pctl
