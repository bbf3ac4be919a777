// Statistical model checking (SMC) — the sampling-based alternative the
// paper positions itself against (cf. its ref. [13], Clarke/Donzé/Legay).
//
// Instead of exhaustively exploring the DTMC, SMC samples finite paths
// directly from the dtmc::Model transition function and estimates bounded
// pCTL properties (P-formulas, instantaneous and cumulative rewards), or
// sequentially tests P(phi) >= theta with Wald's SPRT. This gives the
// library both poles of the paper's comparison: exact probabilistic model
// checking (mc::Checker) and statistical guarantees by simulation (this
// module), sharing one model definition.
//
// Determinism: all estimators draw paths in fixed-size chunks, each chunk
// from its own counter-derived RNG stream (deriveSeed of the caller seed and
// the chunk index). Chunks may run on any threads in any order — per-chunk
// accumulators are merged in chunk-index order, so for a fixed seed the
// result is bit-identical whether sampling runs serially or on a pool of
// any size.
//
// Only *time-bounded* path formulas are estimable by finite sampling;
// passing an unbounded formula throws.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "dtmc/model.hpp"
#include "pctl/ast.hpp"
#include "stats/estimator.hpp"
#include "stats/sprt.hpp"
#include "util/rng.hpp"

namespace mimostat::smc {

/// Evaluate a state formula on a concrete state of a model (variables are
/// resolved through the layout, quoted/bare atoms through Model::atom).
[[nodiscard]] bool evalStateFormula(const dtmc::Model& model,
                                    const dtmc::VarLayout& layout,
                                    const dtmc::State& state,
                                    const pctl::StateFormula& formula);

/// Derive an independent substream seed from a base seed and a stream index
/// (splitmix64 over the mixed pair). Used for per-property and per-chunk RNG
/// streams so sibling estimates are uncorrelated and thread-count
/// independent.
[[nodiscard]] std::uint64_t deriveSeed(std::uint64_t seed,
                                       std::uint64_t stream);

/// Executes a batch of independent tasks, blocking until all complete (the
/// engine passes its thread pool; empty means run serially in order).
using TaskRunner = std::function<void(std::vector<std::function<void()>>)>;

/// Samples random paths from a model. Each path starts from a uniformly
/// chosen initial state. States without outgoing transitions are treated as
/// absorbing (self-loop), matching the convention of explicit-state tools.
class PathSampler {
 public:
  /// Throws std::invalid_argument when the model's layout needs more than
  /// 64 bits.
  PathSampler(const dtmc::Model& model, std::uint64_t seed);
  /// Not copyable: successors_ points at this sampler's own layout_.
  PathSampler(const PathSampler&) = delete;
  PathSampler& operator=(const PathSampler&) = delete;

  /// Restart at a random initial state; returns it.
  const dtmc::State& reset();
  /// Advance one transition; returns the new state.
  const dtmc::State& step();
  [[nodiscard]] const dtmc::State& state() const { return state_; }
  [[nodiscard]] const dtmc::VarLayout& layout() const { return layout_; }

 private:
  const dtmc::Model& model_;
  dtmc::VarLayout layout_;
  util::Xoshiro256 rng_;
  dtmc::State state_;
  dtmc::Successors successors_;  // packs by layout_; the draw unpacks
};

struct SmcOptions {
  std::uint64_t paths = 10'000;
  std::uint64_t seed = 1;
  /// Paths per RNG chunk (the determinism granularity); results are
  /// invariant under the task runner's thread count, not under chunkPaths.
  std::uint64_t chunkPaths = 1'024;
};

struct SmcEstimate {
  stats::BernoulliEstimator satisfied;  ///< per-path satisfaction counter
  double seconds = 0.0;

  [[nodiscard]] double estimate() const { return satisfied.estimate(); }
};

/// Estimate P(path formula) for a bounded path formula by sampling.
/// Throws std::invalid_argument for unbounded formulas.
[[nodiscard]] SmcEstimate estimatePathProbability(
    const dtmc::Model& model, const pctl::PathFormula& path,
    const SmcOptions& options, const TaskRunner& runner = {});

/// Parse-and-estimate convenience for "P=? [ ... ]" property strings.
[[nodiscard]] SmcEstimate estimateProperty(const dtmc::Model& model,
                                           std::string_view propertyText,
                                           const SmcOptions& options,
                                           const TaskRunner& runner = {});

/// Estimate R=? [ I=T ] by sampling (mean instantaneous reward at T).
[[nodiscard]] stats::RunningStats estimateInstantaneousReward(
    const dtmc::Model& model, std::uint64_t horizon,
    std::string_view rewardName, const SmcOptions& options,
    const TaskRunner& runner = {});

/// Estimate R=? [ C<=T ] by sampling: mean over paths of the per-path
/// accumulated state reward sum_{t=0}^{T-1} r(s_t) — the pathwise analogue
/// of the exact checker's sum_{t=0}^{T-1} pi_t . r, so both backends answer
/// the same quantity.
[[nodiscard]] stats::RunningStats estimateCumulativeReward(
    const dtmc::Model& model, std::uint64_t horizon,
    std::string_view rewardName, const SmcOptions& options,
    const TaskRunner& runner = {});

struct SprtOptions {
  double indifference = 0.01;  ///< half-width of the indifference region
  double alpha = 0.01;         ///< false-accept probability for H1
  double beta = 0.01;          ///< false-accept probability for H0
  std::uint64_t maxPaths = 10'000'000;
  std::uint64_t seed = 1;
  /// Paths per RNG chunk; the observation order (and hence the decision) is
  /// a function of the seed alone.
  std::uint64_t chunkPaths = 1'024;
};

struct SprtOutcome {
  stats::SprtDecision decision = stats::SprtDecision::kContinue;
  std::uint64_t pathsUsed = 0;
  /// The tested satisfaction claim holds (only meaningful when a decision
  /// was reached): for P>=theta, kAcceptH1 means "holds".
  bool holds = false;
  /// Per-path satisfaction counts observed before stopping (a point
  /// estimate for free alongside the decision).
  stats::BernoulliEstimator observed;
  /// The effective indifference half-width used (shrunk near 0/1 bounds).
  double indifference = 0.0;
};

/// Sequentially test "P(path) `op` theta" (op an inequality, 0 < theta < 1)
/// for a bounded path formula with Wald's SPRT at the requested alpha/beta
/// error levels. Sampling is sequential by construction; determinism comes
/// from the counter-derived chunk streams.
[[nodiscard]] SprtOutcome testPathProbability(const dtmc::Model& model,
                                              const pctl::PathFormula& path,
                                              pctl::CmpOp op, double theta,
                                              const SprtOptions& options);

/// Parse-and-test convenience for bounded-probability P-property strings
/// (e.g. "P>=0.9 [ F<=50 flag ]").
[[nodiscard]] SprtOutcome testProperty(const dtmc::Model& model,
                                       std::string_view propertyText,
                                       const SprtOptions& options);

}  // namespace mimostat::smc
