// Analysis results: one uniform answer shape across backends.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "la/solver.hpp"
#include "pctl/plan.hpp"
#include "stats/intervals.hpp"

namespace mimostat::engine {

enum class Backend;  // request.hpp

/// Where a request's wall-clock went, phase by phase. Filled by the engine
/// from obs::Span measurements on every request (tracing on or off).
/// Diagnostics only: values and orderings the engine exports never depend
/// on these numbers.
struct PhaseTiming {
  /// Seconds between enqueue (analyzeAll) and the moment a worker
  /// picked the request up; 0 for synchronous analyze().
  double queueSeconds = 0.0;
  /// Model key: the one dtmc::explore pass ("dtmc.explore") that hashes
  /// the reachable chain into the cache key and, on a miss, yields the CSR
  /// the build assembles. 0 when the model's fingerprint named a cached
  /// build.
  double keySeconds = 0.0;
  /// Model acquisition: cache lookup + assembling the explored CSR (or the
  /// wait joining an in-flight build).
  double buildSeconds = 0.0;
  /// State-space reduction stage: mask/reward evaluation, quotient-cache
  /// lookup and (on a miss) the bisimulation refinement. 0 when the stage
  /// did not run.
  double reduceSeconds = 0.0;
  /// Property parsing + evaluation-plan compilation, the reduction
  /// stage's plan included (exact backend).
  double planSeconds = 0.0;
  /// Plan execution (exact) or sampling (smc) across all properties.
  double checkSeconds = 0.0;
  /// Whole request as seen by the engine (excludes queueSeconds).
  double totalSeconds = 0.0;
};

/// How the sampling backend decided a bounded-probability property
/// (P>=theta [...]) with Wald's SPRT.
struct SprtVerdict {
  /// The test reached a decision within maxPaths. When false, `satisfied`
  /// fell back to comparing the point estimate against the bound and
  /// carries no error guarantee.
  bool decided = false;
  /// Paths drawn before stopping.
  std::uint64_t pathsUsed = 0;
  /// Requested error levels: P(report holds | claim off by >= indifference
  /// in the false direction) <= alpha, and symmetrically beta.
  double alpha = 0.0;
  double beta = 0.0;
  /// Effective indifference half-width (shrunk near theta = 0 or 1).
  double indifference = 0.0;
};

/// How the engine's state-space reduction stage treated a request (exact
/// backend). Values the engine exports are bit-identical (exact paths) or
/// within the solver tolerance (iterative paths) whether or not the stage
/// applied — this struct is bookkeeping, not semantics.
struct ReductionStats {
  /// The checker ran on the bisimulation quotient instead of the full
  /// model. False when the stage was off, skipped by the auto heuristic, or
  /// the quotient did not shrink the model (identity quotients are recorded
  /// in the cache but never applied).
  bool applied = false;
  /// The quotient (or the identity-quotient marker) came from the engine's
  /// model cache rather than a fresh refinement.
  bool cacheHit = false;
  std::uint64_t statesBefore = 0;
  std::uint64_t statesAfter = 0;
  std::uint64_t transitionsBefore = 0;
  std::uint64_t transitionsAfter = 0;
  /// Signature-refinement rounds of the (possibly cached) quotient build.
  std::uint32_t refinementRounds = 0;
  /// Why the stage did not apply on this request: kAuto's decline
  /// ("auto: 8193 states < 100000, 14 plan passes < 256"), or the message
  /// of what the stage threw ("unknown exception" for a non-std one).
  /// Empty when the stage was off or ran without failing (an identity
  /// quotient included).
  std::string skipReason;
  /// Wall-clock of the reduction stage for this request (cache hits pay
  /// only the mask/reward evaluation + lookup). Mirrors
  /// PhaseTiming::reduceSeconds.
  double reduceSeconds = 0.0;
};

/// Outcome of one property from an AnalysisRequest.
struct AnalysisResult {
  std::string property;
  /// Numeric answer weighted by the initial distribution (exact backend) or
  /// the point estimate (sampling backend).
  double value = 0.0;
  /// For bounded properties (P>=p [...], R<=r [...]): whether the bound
  /// holds. Always true for =? queries. On the sampling backend,
  /// bounded-probability properties are decided by SPRT (see `sprt`), so
  /// this carries the requested alpha/beta error guarantee rather than
  /// being a point-estimate comparison.
  bool satisfied = true;
  /// Present when `satisfied` came from an SPRT run (sampling backend,
  /// bounded-probability property).
  std::optional<SprtVerdict> sprt;
  /// 95% confidence interval; only present for fixed-sample-size estimates
  /// (sampling backend). Absent for SPRT-decided properties: their sample
  /// size is chosen adaptively, which voids fixed-sample interval coverage
  /// — the error guarantee is the verdict's alpha/beta instead.
  std::optional<stats::Interval> interval95;
  /// Sample paths drawn; 0 for the exact backend.
  std::uint64_t samples = 0;
  /// This property was answered from an evaluation-plan task shared with
  /// at least one sibling: a multi-horizon transient sweep or a
  /// multi-column masked bounded traversal.
  bool batched = false;
  /// Iterative-solver report when the exact backend ran one for this
  /// property (unbounded operators, R=?[F psi], R=?[S]); absent for
  /// transient/bounded properties and the sampling backend. Carries the
  /// solver's own name (SolveStats::solver: "gauss-seidel", "power" or
  /// "elimination"). Deterministic for a fixed model and property at any
  /// thread count.
  std::optional<la::SolveStats> solver;
  /// Seconds spent checking this property (for batched properties: the
  /// shared sweep's total, attributed to every member of the group).
  double checkSeconds = 0.0;
  /// Non-empty when this property failed (parse error, unsupported by the
  /// selected backend, ...). The other properties of the request still
  /// produce values.
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Outcome of a whole request, in request property order.
struct AnalysisResponse {
  std::vector<AnalysisResult> results;
  Backend backend{};
  /// The structural model signature used as the cache key (provenance: it
  /// names the DTMC that answered, and is not an input to later requests).
  std::uint64_t modelKey = 0;
  /// The built DTMC was served from the engine's model cache.
  bool cacheHit = false;
  /// Model statistics (exact backend; zero when sampled).
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint32_t reachabilityIterations = 0;
  double buildSeconds = 0.0;
  /// Evaluation-plan counters for the exact backend (zeros when sampled):
  /// how many tasks the request's property set compiled into, how many
  /// were deduplicated away, and how many per-step matrix traversals the
  /// shared bounded/transient groups saved versus per-formula evaluation.
  /// Deterministic for a fixed property set.
  pctl::PlanStats plan;
  /// State-space reduction stage outcome (exact backend; defaults when the
  /// stage was off or skipped). `states`/`transitions` above always report
  /// the full model — the quotient's counts live here.
  ReductionStats reduction;
  /// Per-phase wall-clock breakdown (queue/key/build/reduce/plan/check) and
  /// the whole request (timing.totalSeconds). Phase sums may be less than
  /// the total; the remainder is engine overhead.
  PhaseTiming timing;
  /// Request-level failure (null model, state-space overflow, ...). Set by
  /// analyzeAll instead of losing sibling responses to a rethrow;
  /// when non-empty, `results` is empty.
  std::string error;

  [[nodiscard]] bool ok() const {
    if (!error.empty()) return false;
    for (const auto& r : results) {
      if (!r.ok()) return false;
    }
    return true;
  }
};

}  // namespace mimostat::engine
