// pctl::EvalPlan — a request's property set compiled into a deduplicated
// DAG of evaluation tasks, before any model-dependent work runs.
//
// Planning is purely syntactic (it sees only parsed ASTs), so it lives in
// pctl::; execution belongs to the layer that owns a model (mc::Checker
// compiles and runs plans, the AnalysisEngine plans across every property
// of a request). A plan decomposes properties into:
//
//   - masks: deduplicated state subformulas (atom masks). Two properties
//     mentioning the same phi/psi — by structure, not text — share one
//     evaluation. Normalization folds double negation, so "G<=T !flag" and
//     "F<=T flag" resolve to the same mask.
//   - columns: bounded-path traversal columns. Every bounded
//     until/finally/globally/next formula becomes a readout of one column
//     of a shared masked SpMM traversal (masked la::spmm); columns with the
//     same (phi, psi, masked) key are deduplicated, so the same "U<=T" body
//     at two thresholds advances ONCE and is sampled at both bounds.
//   - transients: R=?[I=T] / R=?[C<=T] entries sharing one forward sweep
//     (the horizon batching mc::TransientSweep proved out), with reward
//     structures deduplicated by name.
//   - singles: everything else (unbounded operators, steady state,
//     reachability rewards) — independent tasks; structurally identical
//     singles run once, repeats copy the representative's result. Their
//     state subformulas go through the SAME mask table as the bounded
//     columns, so a bounded and an unbounded query over the same target
//     set evaluate that set once (the mask hit counts into tasksDeduped).
//
// PlanStats quantifies the win: tasksPlanned counts distinct tasks that
// will execute, tasksDeduped counts requests satisfied by an existing
// identical task, traversalsSaved counts the per-step matrix traversals
// batching avoids versus per-formula evaluation (sum of bounds minus the
// shared maximum, per group).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pctl/ast.hpp"

namespace mimostat::pctl {

struct PlanStats {
  /// Distinct tasks the plan will execute: masks + traversal columns +
  /// reward vectors + one task per non-empty group + singles.
  std::uint64_t tasksPlanned = 0;
  /// Task requests satisfied by an already-planned identical task (shared
  /// masks, shared traversal columns, shared reward vectors).
  std::uint64_t tasksDeduped = 0;
  /// Per-step matrix traversals avoided versus per-formula evaluation:
  /// sum over group members of their individual step counts, minus the
  /// steps the shared traversal actually takes.
  std::uint64_t traversalsSaved = 0;
  /// Bytes held by the plan's evaluated mask table — packed la::BitVector
  /// words vs what the legacy byte-per-state representation would have
  /// held (the ~8x memory win). Filled by the executor
  /// (mc::Checker::checkAll) once masks are evaluated; zero until then.
  std::uint64_t maskBytesPacked = 0;
  std::uint64_t maskBytesByte = 0;
  /// Seconds spent compiling the plan and evaluating its mask table (the
  /// "pctl.plan" span). Filled by the executor (mc::Checker::checkAll);
  /// diagnostics only — never feeds exported values or ordering.
  double planSeconds = 0.0;
  /// Column panels the bounded group's masked traversal processed, summed
  /// over its steps (one CSR traversal per panel per step — la::SpmmStats).
  /// Filled by the executor; zero when no bounded group ran.
  std::uint64_t spmmPanels = 0;
  /// Matrix traversals the transient group's sweep actually ran. Equals
  /// transientSteps() when the sweep never went stationary; smaller when
  /// pi_t reached a bitwise fixed point before the last horizon. Filled by
  /// the executor; zero when no transient group ran.
  std::uint64_t transientMultiplies = 0;
  /// SIMD dispatch target the la:: kernels resolved for this request
  /// ("scalar"/"sse2"/"avx2" — la::simdTargetName). Filled by the
  /// executor; purely diagnostic, values are bit-identical across targets.
  std::string simdTarget;
};

struct EvalPlan {
  /// Mask slot meaning "no constraint" (phi = true).
  static constexpr std::size_t kNoMask = static_cast<std::size_t>(-1);

  /// Deduplicated state subformulas, each evaluated once per plan run.
  std::vector<StateFormulaPtr> masks;

  /// One column of the shared bounded traversal.
  struct Column {
    std::size_t phiMask = kNoMask;  ///< kNoMask = unconstrained (finally)
    std::size_t psiMask = 0;
    /// true: frozen/absorbing per-state masks apply (until semantics);
    /// false: pure propagation (the X operator's single step).
    bool masked = true;
    /// Furthest readout on this column (the traversal advances to the max
    /// over all columns).
    std::uint64_t steps = 0;
  };
  std::vector<Column> columns;

  /// One bounded/next property's answer: column `column` sampled at step
  /// `bound`, optionally complemented (G<=k phi = 1 - F<=k !phi).
  struct BoundedReadout {
    std::size_t property = 0;  ///< index into the planned property list
    std::size_t column = 0;
    std::uint64_t bound = 0;
    bool complement = false;
  };
  std::vector<BoundedReadout> bounded;

  /// Deduplicated reward structure names for the transient group.
  std::vector<std::string> rewardNames;
  struct TransientEntry {
    std::size_t property = 0;
    std::size_t reward = 0;  ///< index into rewardNames
    bool cumulative = false;
    std::uint64_t bound = 0;
  };
  std::vector<TransientEntry> transients;

  /// Properties executed as independent tasks (one representative per
  /// structurally distinct property). Their state subformulas are interned
  /// into `masks` like the bounded columns': phiMask is the until
  /// left-hand side (kNoMask when trivially true or the operator has
  /// none), psiMask the target set — next/finally operand, the *negated*
  /// globally operand (the executor complements), the until right-hand
  /// side, or a reachability reward's target. Steady-state and transient
  /// reward singles carry no masks.
  struct Single {
    std::size_t property = 0;
    std::size_t phiMask = kNoMask;
    std::size_t psiMask = kNoMask;
  };
  std::vector<Single> singles;
  /// Structurally identical repeats of singles, as (property,
  /// representative) pairs — the representative (a property listed in
  /// `singles`) runs once and its result is copied. Exact evaluation is
  /// deterministic, so the copy equals a recompute bit for bit.
  std::vector<std::pair<std::size_t, std::size_t>> singleDuplicates;

  PlanStats stats;

  /// Steps the shared bounded traversal advances (max column readout).
  [[nodiscard]] std::uint64_t boundedSteps() const;
  /// Steps the shared transient sweep advances (max horizon; cumulative
  /// horizons sample through step bound-1).
  [[nodiscard]] std::uint64_t transientSteps() const;
};

/// Compile a property list into a deduplicated evaluation plan. Purely
/// syntactic — never touches a model, never throws on semantic problems
/// (unknown atoms surface when the plan is executed).
[[nodiscard]] EvalPlan buildPlan(const std::vector<Property>& properties);

}  // namespace mimostat::pctl
