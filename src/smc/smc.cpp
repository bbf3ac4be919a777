#include "smc/smc.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"
#include "pctl/parser.hpp"
#include "util/hash.hpp"

namespace mimostat::smc {

bool evalStateFormula(const dtmc::Model& model, const dtmc::VarLayout& layout,
                      const dtmc::State& state,
                      const pctl::StateFormula& formula) {
  using Kind = pctl::StateFormula::Kind;
  switch (formula.kind) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom: {
      const auto varIdx = layout.tryIndexOf(formula.name);
      if (varIdx != dtmc::VarLayout::npos) return state[varIdx] != 0;
      return model.atom(state, formula.name);
    }
    case Kind::kVarCmp: {
      const auto varIdx = layout.tryIndexOf(formula.name);
      if (varIdx == dtmc::VarLayout::npos) {
        throw std::runtime_error("SMC: unknown state variable '" +
                                 formula.name + "'");
      }
      return pctl::evalCmp(formula.op, state[varIdx], formula.value);
    }
    case Kind::kNot:
      return !evalStateFormula(model, layout, state, *formula.lhs);
    case Kind::kAnd:
      return evalStateFormula(model, layout, state, *formula.lhs) &&
             evalStateFormula(model, layout, state, *formula.rhs);
    case Kind::kOr:
      return evalStateFormula(model, layout, state, *formula.lhs) ||
             evalStateFormula(model, layout, state, *formula.rhs);
  }
  throw std::logic_error("unreachable state-formula kind");
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ util::mix64(stream + 0x9E3779B97F4A7C15ULL);
  return util::splitmix64(state);
}

PathSampler::PathSampler(const dtmc::Model& model, std::uint64_t seed)
    : model_(model), layout_(model.layout()), rng_(seed),
      successors_(layout_) {
  reset();
}

const dtmc::State& PathSampler::reset() {
  const std::vector<dtmc::State> initial = model_.initialStates();
  assert(!initial.empty());
  state_ = initial[rng_.nextBounded(initial.size())];
  return state_;
}

const dtmc::State& PathSampler::step() {
  successors_.clear();
  model_.transitions(state_, successors_);
  if (successors_.empty()) return state_;  // transition-less: absorbing
  // Keys order as the states do, so the row is in the same order as a
  // State-vector row and the same draw picks the same target.
  std::vector<dtmc::PackedTransition>& row = successors_.entries();
  const double mass = dtmc::normalizeTransitions(row, 0.0);
  double u = rng_.nextDouble() * mass;
  std::uint64_t target = row.back().target;  // numeric tail
  for (const auto& t : row) {
    u -= t.prob;
    if (u <= 0.0) {
      target = t.target;
      break;
    }
  }
  layout_.unpackInto(target, state_);
  return state_;
}

namespace {

/// Evaluate one sampled path against a bounded path formula.
bool samplePathSatisfies(PathSampler& sampler, const dtmc::Model& model,
                         const pctl::PathFormula& path) {
  using Kind = pctl::PathFormula::Kind;
  const dtmc::VarLayout& layout = sampler.layout();
  sampler.reset();

  switch (path.kind) {
    case Kind::kNext:
      sampler.step();
      return evalStateFormula(model, layout, sampler.state(), *path.lhs);
    case Kind::kFinally: {
      const std::uint64_t bound = *path.bound;
      if (evalStateFormula(model, layout, sampler.state(), *path.lhs)) {
        return true;
      }
      for (std::uint64_t t = 0; t < bound; ++t) {
        sampler.step();
        if (evalStateFormula(model, layout, sampler.state(), *path.lhs)) {
          return true;
        }
      }
      return false;
    }
    case Kind::kGlobally: {
      const std::uint64_t bound = *path.bound;
      if (!evalStateFormula(model, layout, sampler.state(), *path.lhs)) {
        return false;
      }
      for (std::uint64_t t = 0; t < bound; ++t) {
        sampler.step();
        if (!evalStateFormula(model, layout, sampler.state(), *path.lhs)) {
          return false;
        }
      }
      return true;
    }
    case Kind::kUntil: {
      const std::uint64_t bound = *path.bound;
      for (std::uint64_t t = 0; t <= bound; ++t) {
        if (evalStateFormula(model, layout, sampler.state(), *path.rhs)) {
          return true;
        }
        if (!evalStateFormula(model, layout, sampler.state(), *path.lhs)) {
          return false;
        }
        if (t < bound) sampler.step();
      }
      return false;
    }
  }
  throw std::logic_error("unreachable path-formula kind");
}

void requireBounded(const pctl::PathFormula& path) {
  if (!pctl::isTimeBounded(path)) {
    throw std::invalid_argument(
        "SMC can only estimate bounded path formulas");
  }
}

/// Draw `options.paths` paths in chunks, each chunk from its own
/// counter-derived RNG stream, merging per-chunk accumulators in chunk-index
/// order. `perPath(sampler, acc)` evaluates one path. The accumulator needs
/// a default constructor and merge(); results are bit-identical for a fixed
/// seed regardless of how `runner` schedules the chunks.
template <typename Accumulator, typename PerPath>
Accumulator sampleChunked(const dtmc::Model& model, const SmcOptions& options,
                          const TaskRunner& runner, const PerPath& perPath) {
  const std::uint64_t chunkSize = std::max<std::uint64_t>(1, options.chunkPaths);
  const std::uint64_t numChunks = (options.paths + chunkSize - 1) / chunkSize;
  std::vector<Accumulator> partial(numChunks);

  std::vector<std::function<void()>> tasks;
  tasks.reserve(numChunks);
  for (std::uint64_t c = 0; c < numChunks; ++c) {
    const std::uint64_t count =
        std::min(chunkSize, options.paths - c * chunkSize);
    tasks.push_back([&model, &options, &partial, &perPath, c, count] {
      PathSampler sampler(model, deriveSeed(options.seed, c));
      // Accumulate locally and publish once: adjacent partial[] slots share
      // cache lines, and per-path writes from different workers would
      // ping-pong them.
      Accumulator acc;
      for (std::uint64_t i = 0; i < count; ++i) {
        perPath(sampler, acc);
      }
      partial[c] = acc;
    });
  }
  if (runner) {
    runner(std::move(tasks));
  } else {
    for (auto& task : tasks) task();
  }

  Accumulator merged;
  for (const Accumulator& p : partial) merged.merge(p);
  return merged;
}

}  // namespace

SmcEstimate estimatePathProbability(const dtmc::Model& model,
                                    const pctl::PathFormula& path,
                                    const SmcOptions& options,
                                    const TaskRunner& runner) {
  requireBounded(path);
  // Auto-parents to the caller's span on this thread (the engine's
  // per-property "engine.property" when invoked through the engine).
  obs::Span span("smc.sample");
  SmcEstimate result;
  result.satisfied = sampleChunked<stats::BernoulliEstimator>(
      model, options, runner,
      [&model, &path](PathSampler& sampler, stats::BernoulliEstimator& acc) {
        acc.add(samplePathSatisfies(sampler, model, path));
      });
  result.seconds = span.stopSeconds();
  return result;
}

SmcEstimate estimateProperty(const dtmc::Model& model,
                             std::string_view propertyText,
                             const SmcOptions& options,
                             const TaskRunner& runner) {
  const pctl::Property property = pctl::parseProperty(propertyText);
  if (property.kind != pctl::Property::Kind::kProb) {
    throw std::invalid_argument("estimateProperty takes a P-property");
  }
  return estimatePathProbability(model, property.prob.path, options, runner);
}

stats::RunningStats estimateInstantaneousReward(const dtmc::Model& model,
                                                std::uint64_t horizon,
                                                std::string_view rewardName,
                                                const SmcOptions& options,
                                                const TaskRunner& runner) {
  return sampleChunked<stats::RunningStats>(
      model, options, runner,
      [&model, horizon, rewardName](PathSampler& sampler,
                                    stats::RunningStats& acc) {
        sampler.reset();
        for (std::uint64_t t = 0; t < horizon; ++t) sampler.step();
        acc.add(model.stateReward(sampler.state(), rewardName));
      });
}

stats::RunningStats estimateCumulativeReward(const dtmc::Model& model,
                                             std::uint64_t horizon,
                                             std::string_view rewardName,
                                             const SmcOptions& options,
                                             const TaskRunner& runner) {
  return sampleChunked<stats::RunningStats>(
      model, options, runner,
      [&model, horizon, rewardName](PathSampler& sampler,
                                    stats::RunningStats& acc) {
        sampler.reset();
        double total = 0.0;
        // Rewards are collected in states s_0 .. s_{T-1}, mirroring the
        // exact checker's sum_{t=0}^{T-1} pi_t . r.
        for (std::uint64_t t = 0; t < horizon; ++t) {
          total += model.stateReward(sampler.state(), rewardName);
          sampler.step();
        }
        acc.add(total);
      });
}

SprtOutcome testPathProbability(const dtmc::Model& model,
                                const pctl::PathFormula& path, pctl::CmpOp op,
                                double theta, const SprtOptions& options) {
  if (op != pctl::CmpOp::kGe && op != pctl::CmpOp::kGt &&
      op != pctl::CmpOp::kLe && op != pctl::CmpOp::kLt) {
    throw std::invalid_argument("SPRT needs an inequality bound");
  }
  requireBounded(path);
  if (theta <= 0.0 || theta >= 1.0) {
    throw std::invalid_argument("SPRT needs 0 < theta < 1");
  }

  // Shrink the indifference region when theta sits near a boundary so the
  // SPRT hypotheses stay inside (0, 1).
  const double delta =
      std::min({options.indifference, theta / 2.0, (1.0 - theta) / 2.0});
  stats::Sprt sprt(theta, delta, options.alpha, options.beta);
  SprtOutcome outcome;
  outcome.indifference = delta;

  const std::uint64_t chunkSize = std::max<std::uint64_t>(1, options.chunkPaths);
  for (std::uint64_t c = 0; outcome.pathsUsed < options.maxPaths; ++c) {
    // One counter-derived stream per chunk: the observation sequence (and
    // hence the decision) is a pure function of the seed.
    PathSampler sampler(model, deriveSeed(options.seed, c));
    for (std::uint64_t i = 0;
         i < chunkSize && outcome.pathsUsed < options.maxPaths; ++i) {
      const bool sat = samplePathSatisfies(sampler, model, path);
      ++outcome.pathsUsed;
      outcome.observed.add(sat);
      outcome.decision = sprt.add(sat);
      if (outcome.decision != stats::SprtDecision::kContinue) break;
    }
    if (outcome.decision != stats::SprtDecision::kContinue) break;
  }

  const bool lowerBound = op == pctl::CmpOp::kGe || op == pctl::CmpOp::kGt;
  if (outcome.decision == stats::SprtDecision::kAcceptH1) {
    outcome.holds = lowerBound;  // P >= theta+delta accepted
  } else if (outcome.decision == stats::SprtDecision::kAcceptH0) {
    outcome.holds = !lowerBound;  // P <= theta-delta accepted
  }
  return outcome;
}

SprtOutcome testProperty(const dtmc::Model& model,
                         std::string_view propertyText,
                         const SprtOptions& options) {
  const pctl::Property property = pctl::parseProperty(propertyText);
  if (property.kind != pctl::Property::Kind::kProb ||
      property.prob.isQuery) {
    throw std::invalid_argument(
        "testProperty needs a bounded-probability P-property (e.g. "
        "P>=0.9 [...])");
  }
  return testPathProbability(model, property.prob.path,
                             property.prob.boundOp, property.prob.boundValue,
                             options);
}

}  // namespace mimostat::smc
