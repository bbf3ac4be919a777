// reduce:: — plan-aware state-space reduction between build and check.
//
// The engine's reduction stage quotients an explicit DTMC by probabilistic
// bisimulation (lump::bisim's signature refinement) with an initial
// partition derived from exactly the atom masks and reward vectors the
// request's pctl::EvalPlan needs. Labels the plan never touches do not seed
// the partition, so they never block merging — the paper's structured comm/
// chains collapse by orders of magnitude under a single-property plan that
// a full-label partition would keep nearly discrete.
//
// The quotient's state table stores one member state per block (lump::
// keeps the VarLayout), so every keyed mask and reward re-evaluates to the
// same value on it as on any other block member — mc::Checker runs the plan
// on the quotient unchanged. Quotient-indexed vectors never leave reduce::,
// lump:: and mc:: (machine-checked by the `reduction-boundary` lint rule);
// the engine answers from the quotient's initial distribution, which
// needs no mapping back.
//
// Tolerance contract: quotienting is exact under the Strong Lumping Theorem
// but changes floating-point accumulation order (block mass sums, merged
// rows), so reduced answers agree with the unreduced reference to solver /
// rounding tolerance, not bit-for-bit. The reduction itself is
// deterministic: a fixed model + plan yields a byte-identical partition and
// quotient at any thread count. tests/reduce_test.cpp and bench/reduce.cpp
// assert both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/bit_vector.hpp"
#include "la/exec.hpp"
#include "pctl/plan.hpp"

namespace mimostat::reduce {

/// Three-state reduction knob: kAuto defers to the engine's heuristics.
enum class Toggle : std::uint8_t { kAuto, kOn, kOff };

struct Options {
  /// Plan-aware bisimulation quotient of the whole request. kAuto fires
  /// when the built model is large or the request's plan is long (see
  /// quotientSelected) — otherwise the refinement costs more than the
  /// check it shrinks; kOn always tries, kOff never. An attempted quotient
  /// that does not shrink the model is discarded (the check phase runs
  /// unreduced) but cached, so repeated requests skip the refinement.
  Toggle quotient = Toggle::kAuto;
};

/// Matrix passes a plan's check makes: boundedSteps() x columns for the
/// shared bounded traversal plus transientSteps() for the transient sweep.
/// Unbounded and steady-state singles count 0.
[[nodiscard]] std::uint64_t planPasses(const pctl::EvalPlan& plan);

/// Engine policy: should the quotient stage run for an n-state model
/// checked by a plan of `planPasses` passes? kAuto fires at 100,000 states
/// or 256 passes (fixed constants, never probed): one pass over the
/// paper's Viterbi decoders costs about as much as 1/120 (L=6) to 1/55
/// (L=7) of their refinement, so a 1,300-pass Table I/III plan repays it
/// many times, while MIMO's 14-pass plans quotient for their size alone.
/// Depends only on (model, plan), never on cache state or timing.
[[nodiscard]] bool quotientSelected(const Options& options,
                                    std::uint64_t numStates,
                                    std::uint64_t planPasses);

/// Why kAuto declined, e.g. "auto: 8193 states < 100000, 14 plan passes
/// < 256".
[[nodiscard]] std::string quotientAutoSkipReason(std::uint64_t numStates,
                                                 std::uint64_t planPasses);

/// Engine policy: answer unbounded reachability / expected-reward singles
/// by exact state elimination (mc::CheckOptions::elimination) instead of
/// Gauss-Seidel? Fires only when the quotient stage applied and the
/// quotient has at most 50,000 states (a fixed constant): elimination
/// fill-in stays bounded on a coarse quotient, and those answers already
/// carry the reduction tolerance contract.
[[nodiscard]] bool eliminationSelected(bool quotientApplied,
                                       std::uint64_t quotientStates);

/// Counters of one plan-aware quotient: what the engine reports in
/// ReductionStats and what decides apply/skip. The block map stays inside
/// lump::lump; nothing past the quotient reads it.
struct ReductionInfo {
  std::uint32_t statesBefore = 0;
  std::uint32_t statesAfter = 0;
  std::uint64_t transitionsBefore = 0;
  std::uint64_t transitionsAfter = 0;
  std::uint32_t refinementRounds = 0;
  /// Wall-clock of the refinement + quotient construction.
  double seconds = 0.0;
};

/// A quotient DTMC plus its counters.
struct ReducedModel {
  dtmc::ExplicitDtmc quotient;
  ReductionInfo info;
};

/// Plan-aware quotient: the initial partition separates states exactly by
/// the given evaluated masks (one bit per state each) and reward vectors
/// (bucketed at 1e-12, like transition probabilities during refinement) —
/// the plan's needs, nothing more.
/// Deterministic: block ids are assigned in ascending state order, with or
/// without `runner` (which only spreads the signature refinement, see
/// lump::lump).
[[nodiscard]] ReducedModel buildQuotient(
    const dtmc::ExplicitDtmc& dtmc,
    const std::vector<const la::BitVector*>& masks,
    const std::vector<const std::vector<double>*>& rewards,
    const la::TaskRunner& runner = {});

}  // namespace mimostat::reduce
