// Full pCTL checker: evaluates parsed properties against an explicit DTMC.
//
// State formulas resolve identifiers first against the model's variables
// (comparisons like errs>1 become per-state predicates over the stored
// variable assignment) and then against the model's named atoms. Reward
// queries resolve through the model's reward structures; the empty name is
// the default structure.
//
// Evaluation is plan-driven: a property set is compiled by pctl::buildPlan
// into a deduplicated task DAG and executed in groups —
//
//   - every bounded path formula (U<=k / F<=k / G<=k / X) becomes a column
//     of ONE shared masked SpMM traversal (masked la::spmm): k bounded
//     formulas cost one matrix traversal per step instead of k, and each
//     column's floating-point sequence is identical to its own per-formula
//     loop, so batching changes wall-clock only, never values;
//   - R=?[I=T] / R=?[C<=T] share one forward transient sweep to the
//     maximum horizon (mc::TransientSweep), reward vectors deduplicated;
//     the sweep stops multiplying at its exact (bitwise) fixed point;
//   - everything else (unbounded operators, steady state, reachability
//     rewards) runs as independent single tasks, optionally fanned out
//     over a caller-supplied task runner.
//
// check() runs a one-property plan, so the single-property path and the
// batched path are the same code — bit-identical by construction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <optional>

#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "la/bit_vector.hpp"
#include "la/exec.hpp"
#include "la/solver.hpp"
#include "pctl/ast.hpp"
#include "pctl/parser.hpp"
#include "pctl/plan.hpp"
#include "pctl/property_cache.hpp"

namespace mimostat::mc {

struct CheckOptions {
  /// Parallel execution for la:: kernels (transient multiplies, masked
  /// bounded traversals, power iteration). Results are bit-identical with
  /// or without a runner; the AnalysisEngine injects its pool here by
  /// default.
  la::Exec exec;
  /// Answer unbounded reachability / reachability-reward singles by exact
  /// state elimination (solver name "elimination") instead of Gauss-Seidel.
  /// The AnalysisEngine sets it by reduce::eliminationSelected (a quotient
  /// applied and is small); a standalone Checker leaves it off.
  bool elimination = false;
  /// obs:: span id the checker's phase spans ("pctl.plan", "mc.single",
  /// "mc.boundedTraversal", "mc.transientSweep") parent to. Needed because
  /// group tasks may run on pool threads, where the tracer's same-thread
  /// nesting cannot see the caller's span. 0 = root / thread-local parent.
  /// Diagnostics only; checking results never depend on it.
  std::uint64_t traceParent = 0;
};

struct CheckResult {
  /// Numeric answer of the query, weighted by the initial distribution
  /// (for bounded properties this is the paper's reported value).
  double value = 0.0;
  /// For bounded properties (P>=0.9 [...], R<=0.1 [...]): whether the bound
  /// holds in the initial distribution.
  bool satisfied = true;
  /// Per-state values when the operator produces them (empty for rewards).
  std::vector<double> stateValues;
  /// Seconds spent checking (excludes model construction). Group members
  /// carry the shared group's total.
  double checkSeconds = 0.0;
  /// This property was answered from a task shared with at least one other
  /// property of the same checkAll call (a multi-column bounded traversal
  /// or a multi-horizon transient sweep).
  bool batched = false;
  /// Solver report when the property ran one (unbounded operators,
  /// R=?[F psi], R=?[S]), passed on unchanged from la:: ("gauss-seidel",
  /// "power") or the elimination path ("elimination"); absent for
  /// transient/bounded properties (direct propagations) and when
  /// Prob0/Prob1 classified every state.
  std::optional<la::SolveStats> solver;
  /// Non-empty when this property failed (unknown atom/variable, ...).
  /// Filled by checkAll — sibling properties still produce values;
  /// check() rethrows it instead.
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Weigh per-state values by the initial distribution.
[[nodiscard]] double fromInitial(const dtmc::ExplicitDtmc& dtmc,
                                 const std::vector<double>& stateValues);

class Checker {
 public:
  /// The model reference supplies atoms/rewards; both must outlive the
  /// checker. Parses are memoized in the process-wide
  /// pctl::PropertyCache::global(), shared with the AnalysisEngine, so a
  /// property parsed anywhere is parsed once.
  Checker(const dtmc::ExplicitDtmc& dtmc, const dtmc::Model& model,
          CheckOptions options = {});

  /// Evaluate a parsed property (a one-property plan). Throws on semantic
  /// failures (unknown atoms/variables).
  [[nodiscard]] CheckResult check(const pctl::Property& property) const;

  /// Parse and evaluate. Parses are memoized (thread-safe), so repeated
  /// checks of the same property text skip the parser.
  [[nodiscard]] CheckResult check(std::string_view propertyText) const;

  /// Evaluate a property set through one shared evaluation plan: bounded
  /// path formulas advance as columns of one masked traversal, transient
  /// horizons share one sweep, everything else runs as independent tasks
  /// (fanned out over `runner` when provided — same contract as la::Exec's
  /// runner). Failures are captured per property in CheckResult::error;
  /// sibling results are unaffected. `planStats` (optional) receives the
  /// plan's dedup/batching counters.
  [[nodiscard]] std::vector<CheckResult> checkAll(
      const std::vector<pctl::Property>& properties,
      pctl::PlanStats* planStats = nullptr,
      const la::TaskRunner& runner = {}) const;

  /// Memoized parse of a property text (shared with check(string_view)).
  [[nodiscard]] pctl::Property parsedProperty(std::string_view propertyText) const;

  /// Per-state truth set of a state formula (exposed for tests and for
  /// the reduction verifier). Boolean connectives are word-parallel
  /// BitVector ops.
  [[nodiscard]] la::BitVector evalStateFormula(
      const pctl::StateFormula& f) const;

 private:
  /// One property evaluated outside any group: an unbounded operator, a
  /// steady-state reward or a reachability reward (the plan routes every
  /// time-bounded formula and I=/C<= reward to a group). The property's
  /// state sets are read from the plan's interned mask table
  /// (single.phiMask/psiMask), not re-evaluated privately.
  [[nodiscard]] CheckResult checkSingle(
      const pctl::Property& property, const pctl::EvalPlan::Single& single,
      const std::vector<la::BitVector>& maskValues) const;

  /// All bounded readouts of the plan: one masked SpMM traversal, columns
  /// sampled at their bounds. `planStats` (nullable) accumulates the
  /// traversal's per-step panel counts (PlanStats::spmmPanels) — written
  /// only from the group's own task, after the traversal finishes.
  void runBoundedGroup(const pctl::EvalPlan& plan,
                       const std::vector<pctl::Property>& properties,
                       const std::vector<la::BitVector>& maskValues,
                       const std::vector<std::string>& maskErrors,
                       std::vector<CheckResult>& results,
                       pctl::PlanStats* planStats) const;

  /// All transient entries of the plan: one forward sweep to the maximum
  /// horizon, reward dot products deduplicated per step. Once the sweep is
  /// stationary, steps with no reader are skipped outright. `planStats`
  /// (nullable) receives the sweep's actual matrix traversals
  /// (PlanStats::transientMultiplies).
  void runTransientGroup(const pctl::EvalPlan& plan,
                         const std::vector<pctl::Property>& properties,
                         std::vector<CheckResult>& results,
                         pctl::PlanStats* planStats) const;

  const dtmc::ExplicitDtmc& dtmc_;
  const dtmc::Model& model_;
  CheckOptions options_;
};

}  // namespace mimostat::mc
