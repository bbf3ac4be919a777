#include "engine/engine.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "dtmc/signature.hpp"
#include "mc/checker.hpp"
#include "pctl/hash.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "pctl/parser.hpp"
#include "pctl/property_cache.hpp"
#include "smc/smc.hpp"
#include "stats/gaussian.hpp"
#include "util/hash.hpp"

namespace mimostat::engine {

namespace {

/// One parsed property slot of a request.
struct ParsedSlot {
  std::optional<pctl::Property> property;
  std::string parseError;
};

void applyRewardBound(const pctl::RewardQuery& rq, AnalysisResult& result) {
  if (!rq.isQuery) {
    result.satisfied = pctl::evalCmp(rq.boundOp, result.value, rq.boundValue);
  }
}

stats::Interval meanInterval95(const stats::RunningStats& stats) {
  const double z = stats::normalInvCdf(0.975);
  const double half = z * stats.standardError();
  return {stats.mean() - half, stats.mean() + half};
}

/// Cache keys fold the one build option that changes the built matrix
/// (probFloor drops and renormalizes transitions) into the structural
/// signature, so requests with different floors never share an entry. The
/// fingerprint aliases fold it into the model fingerprint the same way.
/// Quotient-cache entries live in the same map as full builds; the salt
/// keeps a quotient key from ever colliding with its structural key even
/// for an empty digest.
constexpr std::uint64_t kQuotientKeySalt = 0x9D0712E6C2B5A34Full;
/// Keeps quotient aliases apart from the fingerprint aliases of full builds.
constexpr std::uint64_t kQuotientAliasSalt = 0x51A5E7C0A11A5E50ull;

std::uint64_t cacheKeyFor(std::uint64_t signatureHash,
                          const dtmc::BuildOptions& buildOptions) {
  return buildOptions.probFloor == 0.0
             ? signatureHash
             : util::hashCombineDouble(signatureHash, buildOptions.probFloor);
}

/// The quotient alias of `model`'s reduction under `plan`: its fingerprint
/// (with the build options), each plan mask's structural hash in plan order
/// and the sorted reward names. Model::fingerprint()'s contract fixes the
/// layout, atoms and rewards, so the mask bits, reward vectors and digest
/// the quotient key hashes are functions of the alias. nullopt without a
/// fingerprint.
std::optional<std::uint64_t> quotientAlias(
    const dtmc::Model& model, const dtmc::BuildOptions& build,
    const pctl::EvalPlan& plan, const std::vector<std::string>& rewardNames) {
  const std::optional<std::uint64_t> fingerprint = model.fingerprint();
  if (!fingerprint) return std::nullopt;
  std::uint64_t h =
      util::hashCombine(cacheKeyFor(*fingerprint, build) ^ kQuotientAliasSalt,
                        util::mix64(plan.masks.size()));
  for (const auto& mask : plan.masks) {
    h = util::hashCombine(h, pctl::structuralHash(*mask));
  }
  for (const std::string& name : rewardNames) {
    h = util::hashCombine(h, util::fnv1a(name.data(), name.size()));
  }
  return h;
}

/// The hashed (and kept) rows follow the build's probability floor, so a
/// miss can assemble the DTMC straight from the key exploration.
dtmc::ExploreOptions exploreOptionsFor(const dtmc::BuildOptions& build,
                                       std::uint64_t maxStates,
                                       bool keepMatrix) {
  dtmc::ExploreOptions options;
  options.maxStates = maxStates;
  options.probFloor = build.probFloor;
  options.keepMatrix = keepMatrix;
  return options;
}

/// A model-cache entry, assembled from `exploration` (the one that produced
/// `key`; no second BFS) when given, else built with buildExplicit on
/// `runner`.
std::shared_ptr<const BuiltModel> builtModel(
    const dtmc::Model& model, const dtmc::BuildOptions& buildOptions,
    std::uint64_t key, dtmc::Exploration* exploration,
    const la::TaskRunner& runner) {
  dtmc::BuildResult build;
  if (exploration != nullptr) {
    // Nests under "engine.build", like buildExplicit's span.
    obs::Span assemble("dtmc.build");
    build = dtmc::buildFromExploration(std::move(*exploration), buildOptions);
    build.buildSeconds += assemble.stopSeconds();
  } else {
    build = dtmc::buildExplicit(model, buildOptions, runner);
  }
  auto built = std::make_shared<BuiltModel>();
  built->dtmc = std::move(build.dtmc);
  built->reachabilityIterations = build.reachabilityIterations;
  built->buildSeconds = build.buildSeconds;
  built->signature = key;
  built->approxBytes = approxDtmcBytes(built->dtmc);
  return built;
}

}  // namespace

const char* backendName(Backend backend) {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kExact:
      return "exact";
    case Backend::kSampling:
      return "sampling";
  }
  return "?";
}

std::uint64_t approxDtmcBytes(const dtmc::ExplicitDtmc& dtmc) {
  // CSR arrays (including the stable transpose and block tables, via the
  // matrix's own accounting); initial distribution; the state table (8
  // bytes a state when packed).
  return dtmc.matrix().approxBytes() +
         std::uint64_t{dtmc.numStates()} * sizeof(double) +
         dtmc.stateTableBytes();
}

AnalysisEngine::AnalysisEngine(EngineOptions options)
    : options_(options),
      pool_(options.threads,
            options.metrics != nullptr ? options.metrics : &ownMetrics_),
      metrics_(options.metrics != nullptr ? options.metrics : &ownMetrics_),
      requestLatencyNs_(metrics_->histogram("engine.request_ns")),
      buildCounter_(metrics_->counter("engine.builds")),
      cacheHitCounter_(metrics_->counter("engine.cache_hits")),
      quotientBuildCounter_(metrics_->counter("engine.quotient_builds")),
      quotientHitCounter_(metrics_->counter("engine.quotient_hits")),
      fingerprintHitCounter_(metrics_->counter("engine.fingerprint_hits")),
      quotientAliasHitCounter_(
          metrics_->counter("engine.quotient_alias_hits")) {}

AnalysisEngine::~AnalysisEngine() = default;

pctl::Property AnalysisEngine::parsedProperty(const std::string& text) {
  return pctl::PropertyCache::global().get(text);
}

EngineStats AnalysisEngine::stats() const {
  // The cache levels are one snapshot under the lock, so a stats() racing an
  // eviction or a build completion can never observe a half-updated
  // (cachedModels, cacheBytes) pair.
  EngineStats stats;
  {
    const util::MutexLock lock(cacheMutex_);
    stats.cachedModels = modelCache_.size();
    stats.cacheBytes = cacheBytes_;
  }
  // Counts and latency percentiles come from the registry; engines sharing
  // one registry share them. The constructor registered every name read
  // here (the request histogram is in nanoseconds).
  const obs::MetricsSnapshot metrics = metrics_->snapshot();
  stats.builds = metrics.counterValue("engine.builds");
  stats.cacheHits = metrics.counterValue("engine.cache_hits");
  stats.quotientBuilds = metrics.counterValue("engine.quotient_builds");
  stats.quotientHits = metrics.counterValue("engine.quotient_hits");
  const obs::HistogramSnapshot& latency =
      *metrics.histogram("engine.request_ns");
  stats.requests = latency.count;
  stats.p50RequestSeconds = latency.p50() * 1e-9;
  stats.p90RequestSeconds = latency.p90() * 1e-9;
  stats.p99RequestSeconds = latency.p99() * 1e-9;
  return stats;
}

void AnalysisEngine::clearModelCache() {
  const util::MutexLock lock(cacheMutex_);
  modelCache_.clear();
  fingerprintKeys_.clear();
  cacheBytes_ = 0;
}

void AnalysisEngine::eraseSlotLocked(CacheMap::iterator slot) {
  cacheBytes_ -= slot->second.bytes;
  for (const std::uint64_t alias : slot->second.aliases) {
    fingerprintKeys_.erase(alias);
  }
  modelCache_.erase(slot);
}

std::optional<std::uint64_t> AnalysisEngine::fingerprintKey(
    const dtmc::Model& model, const dtmc::BuildOptions& build) {
  const std::optional<std::uint64_t> fingerprint = model.fingerprint();
  if (!fingerprint) return std::nullopt;
  std::uint64_t key = 0;
  {
    const util::MutexLock lock(cacheMutex_);
    const auto it = fingerprintKeys_.find(cacheKeyFor(*fingerprint, build));
    if (it == fingerprintKeys_.end()) return std::nullopt;
    key = it->second;
  }
  fingerprintHitCounter_.inc();
  return key;
}

void AnalysisEngine::recordFingerprint(const dtmc::Model& model,
                                       const dtmc::BuildOptions& build,
                                       std::uint64_t key) {
  const std::optional<std::uint64_t> fingerprint = model.fingerprint();
  if (fingerprint) recordAlias(cacheKeyFor(*fingerprint, build), key);
}

void AnalysisEngine::recordAlias(std::uint64_t alias, std::uint64_t key) {
  const util::MutexLock lock(cacheMutex_);
  const auto slot = modelCache_.find(key);
  if (slot == modelCache_.end()) return;  // evicted since its fill
  if (fingerprintKeys_.emplace(alias, key).second) {
    slot->second.aliases.push_back(alias);
  }
}

std::shared_future<std::shared_ptr<const BuiltModel>>
AnalysisEngine::joinLocked(CacheSlot& slot, bool quotient) {
  (quotient ? quotientHitCounter_ : cacheHitCounter_).inc();
  slot.lastUsed = ++useCounter_;
  return slot.future;
}

std::shared_ptr<const BuiltModel> AnalysisEngine::quotientByAlias(
    std::uint64_t alias) {
  std::shared_future<std::shared_ptr<const BuiltModel>> joined;
  {
    const util::MutexLock lock(cacheMutex_);
    const auto it = fingerprintKeys_.find(alias);
    if (it == fingerprintKeys_.end()) return nullptr;
    // Eviction drops a slot's aliases with it, so the slot is resident.
    joined = joinLocked(modelCache_.at(it->second), true);
  }
  quotientAliasHitCounter_.inc();
  return joined.get();  // waits for an in-flight fill; rethrows failures
}

void AnalysisEngine::evictLocked() {
  const auto overBudget = [&] {
    if (modelCache_.size() > options_.maxCachedModels) return true;
    // The byte budget never evicts the last entry: a single model larger
    // than the budget stays resident (it will be LRU next time) instead of
    // thrashing — rebuild-per-request would be strictly worse.
    return options_.maxCacheBytes > 0 &&
           cacheBytes_ > options_.maxCacheBytes && modelCache_.size() > 1;
  };
  while (overBudget()) {
    auto victim = modelCache_.end();
    for (auto it = modelCache_.begin(); it != modelCache_.end(); ++it) {
      const bool ready = it->second.future.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
      if (!ready) continue;  // never evict an in-flight build
      if (victim == modelCache_.end() ||
          it->second.lastUsed < victim->second.lastUsed) {
        victim = it;
      }
    }
    if (victim == modelCache_.end()) return;
    eraseSlotLocked(victim);
  }
}

std::shared_ptr<const BuiltModel> AnalysisEngine::getOrCompute(
    std::uint64_t key, bool quotient, bool* cacheHit,
    const std::function<std::shared_ptr<const BuiltModel>()>& compute) {
  std::promise<std::shared_ptr<const BuiltModel>> promise;
  std::shared_future<std::shared_ptr<const BuiltModel>> joined;
  {
    const util::MutexLock lock(cacheMutex_);
    const auto it = modelCache_.find(key);
    if (it != modelCache_.end()) {
      joined = joinLocked(it->second, quotient);
    } else {
      (quotient ? quotientBuildCounter_ : buildCounter_).inc();
      CacheSlot slot;
      slot.future = promise.get_future().share();
      slot.lastUsed = ++useCounter_;
      modelCache_.emplace(key, std::move(slot));
    }
  }
  if (cacheHit != nullptr) *cacheHit = joined.valid();
  if (joined.valid()) {
    return joined.get();  // waits for an in-flight fill; rethrows failures
  }

  try {
    std::shared_ptr<const BuiltModel> built = compute();
    promise.set_value(built);
    const util::MutexLock lock(cacheMutex_);
    // The slot may already be gone if a concurrent eviction pass raced past
    // this fill's completion; account its bytes only while resident.
    const auto slot = modelCache_.find(key);
    if (slot != modelCache_.end() && slot->second.bytes == 0) {
      slot->second.bytes = built->approxBytes;
      cacheBytes_ += built->approxBytes;
    }
    evictLocked();
    return built;
  } catch (...) {
    // Drop the failed slot so a later request can retry, then propagate to
    // this caller and to any waiter blocked on the shared future. The slot
    // normally carries bytes == 0 (in-flight), but a racing completed fill
    // of the same key may have recorded its size here — keep cacheBytes_
    // consistent either way.
    {
      const util::MutexLock lock(cacheMutex_);
      const auto it = modelCache_.find(key);
      if (it != modelCache_.end()) eraseSlotLocked(it);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::shared_ptr<const BuiltModel> AnalysisEngine::ensureBuilt(
    const dtmc::Model& model, const dtmc::BuildOptions& buildOptions,
    bool* cacheHit) {
  const la::TaskRunner runner = laRunnerFor(pool_);
  std::optional<dtmc::Exploration> exploration;
  std::optional<std::uint64_t> key = fingerprintKey(model, buildOptions);
  if (!key) {
    exploration = dtmc::explore(
        model, exploreOptionsFor(buildOptions, buildOptions.maxStates, true),
        runner);
    key = cacheKeyFor(exploration->hash, buildOptions);
  }
  const bool exact = exploration && exploration->exact;
  std::shared_ptr<const BuiltModel> built =
      getOrCompute(*key, false, cacheHit, [&] {
        return builtModel(model, buildOptions, *key,
                          exploration ? &*exploration : nullptr, runner);
      });
  if (exact) recordFingerprint(model, buildOptions, *key);
  return built;
}

std::shared_ptr<const BuiltModel> AnalysisEngine::quotientFor(
    const BuiltModel& full, std::uint64_t quotientKey,
    const std::vector<const la::BitVector*>& masks,
    const std::vector<const std::vector<double>*>& rewards, bool* cacheHit) {
  return getOrCompute(quotientKey, true, cacheHit, [&] {
    reduce::ReducedModel reduced = reduce::buildQuotient(
        full.dtmc, masks, rewards, laRunnerFor(pool_));
    auto built = std::make_shared<BuiltModel>();
    built->signature = quotientKey;
    built->reachabilityIterations = full.reachabilityIterations;
    if (reduced.info.statesAfter < reduced.info.statesBefore) {
      built->dtmc = std::move(reduced.quotient);
      built->approxBytes = approxDtmcBytes(built->dtmc);
    } else {
      // Identity-quotient marker: drop the (duplicate) quotient matrix. The
      // entry only memoizes "this plan cannot shrink this model", so repeat
      // requests skip the refinement.
      built->approxBytes = sizeof(BuiltModel);
    }
    built->reduction = reduced.info;
    return std::shared_ptr<const BuiltModel>(std::move(built));
  });
}

AnalysisResponse AnalysisEngine::analyze(const AnalysisRequest& request) {
  return analyzeQueued(request, 0.0);
}

AnalysisResponse AnalysisEngine::analyzeQueued(const AnalysisRequest& request,
                                               double queueSeconds) {
  // Root of the request's span tree; every phase span below parents here
  // (directly or via CheckOptions::traceParent for cross-thread tasks).
  obs::Span span("engine.analyze");
  // Every exit counts as an answered request, failed ones included.
  const auto record = [&](double totalSeconds) {
    requestLatencyNs_.recordSeconds(queueSeconds + totalSeconds);
  };
  try {
    if (request.model == nullptr) {
      throw std::invalid_argument("AnalysisRequest: model is null");
    }
    const RequestOptions& options = request.options;

    // Resolve the cache key and the backend. A fingerprint aliased to a
    // resident entry names a cached build without an exploration (so kAuto
    // resolves to exact).
    std::uint64_t key = 0;
    Backend backend = options.backend;
    std::optional<dtmc::Exploration> exploration;
    const std::optional<std::uint64_t> knownKey =
        fingerprintKey(*request.model, options.build);
    if (knownKey) {
      key = *knownKey;
      if (backend == Backend::kAuto) backend = Backend::kExact;
    } else {
      // One exploration yields the key and, unless sampling (which needs
      // the key only as a label), the CSR a miss assembles. Sampling and
      // kAuto cap it one past the state budget (saturating, so an unlimited
      // budget explores everything) — sampled models are typically huge.
      // Its rows are computed on the pool; the result is the sequential one.
      const std::uint64_t budgetCap =
          options.stateBudget == std::numeric_limits<std::uint64_t>::max()
              ? options.stateBudget
              : options.stateBudget + 1;
      exploration = dtmc::explore(
          *request.model,
          exploreOptionsFor(options.build,
                            backend == Backend::kExact
                                ? options.build.maxStates
                                : budgetCap,
                            backend != Backend::kSampling),
          laRunnerFor(pool_));
      key = cacheKeyFor(exploration->hash, options.build);
      if (backend == Backend::kAuto) {
        bool cached = false;
        {
          const util::MutexLock lock(cacheMutex_);
          cached = modelCache_.find(key) != modelCache_.end();
        }
        backend = (cached || (exploration->exact &&
                              exploration->states <= options.stateBudget))
                      ? Backend::kExact
                      : Backend::kSampling;
      }
    }
    const double keySeconds = exploration ? exploration->seconds : 0.0;
    // Only a kExact exploration may be truncated when it reaches the build
    // (which then fails at once); a kAuto one whose key was cached is not
    // kept.
    if (exploration && (backend == Backend::kSampling ||
                        (options.backend == Backend::kAuto &&
                         !exploration->exact))) {
      exploration.reset();
    }

    AnalysisResponse response =
        backend == Backend::kExact
            ? analyzeExact(request, key,
                           exploration ? &*exploration : nullptr, span.id())
            : analyzeSampling(request, key, span.id());
    response.timing.queueSeconds = queueSeconds;
    response.timing.keySeconds = keySeconds;
    response.timing.totalSeconds = span.stopSeconds();
    record(response.timing.totalSeconds);
    return response;
  } catch (...) {
    record(span.stopSeconds());
    throw;
  }
}

AnalysisResponse AnalysisEngine::analyzeExact(const AnalysisRequest& request,
                                              std::uint64_t key,
                                              dtmc::Exploration* exploration,
                                              std::uint64_t traceParent) {
  AnalysisResponse response;
  response.backend = Backend::kExact;
  response.modelKey = key;
  response.results.resize(request.properties.size());

  // Parse every property up front (memoized); parse failures become
  // per-property errors, not request failures.
  obs::Span parseSpan("pctl.parse", traceParent);
  std::vector<ParsedSlot> parsed(request.properties.size());
  for (std::size_t i = 0; i < request.properties.size(); ++i) {
    response.results[i].property = request.properties[i];
    try {
      parsed[i].property = parsedProperty(request.properties[i]);
    } catch (const std::exception& e) {
      parsed[i].parseError = e.what();
      response.results[i].error = e.what();
    }
  }
  const double parseSeconds = parseSpan.stopSeconds();

  // The build phase covers cache lookup and assembling the explored CSR (or
  // the wait joining an in-flight build — "dtmc.build" nests here on a
  // miss).
  obs::Span buildSpan("engine.build", traceParent);
  const la::TaskRunner runner = laRunnerFor(pool_);
  const bool exact = exploration != nullptr && exploration->exact;
  bool cacheHit = false;
  std::shared_ptr<const BuiltModel> built =
      getOrCompute(key, false, &cacheHit, [&] {
        return builtModel(*request.model, request.options.build, key,
                          exploration, runner);
      });
  if (exact) recordFingerprint(*request.model, request.options.build, key);
  // A hit never needs the explored matrix; free it before reduce and check.
  if (exploration != nullptr) *exploration = dtmc::Exploration{};
  response.cacheHit = cacheHit;

  response.timing.buildSeconds = buildSpan.stopSeconds();

  response.states = built->dtmc.numStates();
  response.transitions = built->dtmc.numTransitions();
  response.reachabilityIterations = built->reachabilityIterations;
  response.buildSeconds = built->buildSeconds;

  // Properties the plan (and the reduction stage's probe) will cover; the
  // engine maps indices around parse failures.
  std::vector<pctl::Property> planned;
  std::vector<std::size_t> slotOf;
  planned.reserve(parsed.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    if (!parsed[i].property) continue;
    planned.push_back(*parsed[i].property);
    slotOf.push_back(i);
  }

  // ---- State-space reduction stage -------------------------------------
  // On large models or long plans (or when forced on), replace the
  // checking substrate with the plan-aware bisimulation quotient: the
  // initial partition is seeded by exactly the atom masks and reward
  // vectors this request's plan needs, so labels the plan never reads
  // cannot block merging. The unmodified checker then runs on the quotient
  // — every mask/reward that seeded the partition is block-constant, so
  // re-evaluation through the quotient's per-block member states equals
  // projection and the initial-distribution-weighted answers are exact
  // (strong lumping). Quotients are cached in the model cache keyed by
  // (structural key, label/reward digest).
  //
  // The stage's plan is compiled once, before the decision: its pass count
  // drives kAuto and its mask table seeds the partition. The decision
  // depends only on the model and the plan, so a request answers with the
  // same bits whatever the cache holds. The plan is purely syntactic and
  // deterministic (the checker recompiles the identical plan below);
  // compiling it after the build rather than before measured lower peak
  // memory on cold MIMO requests.
  const reduce::Options& reduction = request.options.reduction;
  obs::Span probePlanSpan("pctl.plan", traceParent);
  std::optional<pctl::EvalPlan> probePlan;
  if (!planned.empty() && reduction.quotient != reduce::Toggle::kOff) {
    probePlan = pctl::buildPlan(planned);
  }
  const double probePlanSeconds = probePlanSpan.stopSeconds();
  const std::uint64_t fullStates = built->dtmc.numStates();
  const std::uint64_t planPasses =
      probePlan ? reduce::planPasses(*probePlan) : 0;
  const bool quotient =
      probePlan && reduce::quotientSelected(reduction, fullStates, planPasses);
  if (probePlan && !quotient) {  // only kAuto declines
    response.reduction.skipReason =
        reduce::quotientAutoSkipReason(fullStates, planPasses);
  }
  if (quotient) {
    obs::Span reduceSpan("engine.reduce", traceParent);
    ReductionStats reductionStats;
    try {
      // Reward structures any reward property resolves. plan.rewardNames
      // covers only the transient group, so gather from the properties and
      // deduplicate in sorted order (the digest is order-independent, but
      // the partition keys must be fed deterministically).
      std::vector<std::string> rewardNames;
      for (const pctl::Property& property : planned) {
        if (property.kind == pctl::Property::Kind::kReward) {
          rewardNames.push_back(property.reward.rewardName);
        }
      }
      std::sort(rewardNames.begin(), rewardNames.end());
      rewardNames.erase(std::unique(rewardNames.begin(), rewardNames.end()),
                        rewardNames.end());

      // A fingerprinted model reaches a quotient it has seen through its
      // alias, without evaluating masks and rewards over the full model.
      const std::optional<std::uint64_t> alias = quotientAlias(
          *request.model, request.options.build, *probePlan, rewardNames);
      std::shared_ptr<const BuiltModel> reducedBuilt =
          alias ? quotientByAlias(*alias) : nullptr;
      bool quotientCacheHit = reducedBuilt != nullptr;
      if (!reducedBuilt) {
        const la::TaskRunner runner = laRunnerFor(pool_);
        mc::CheckOptions probeOptions;
        probeOptions.traceParent = reduceSpan.id();
        probeOptions.exec.runner = runner;
        const mc::Checker probe(built->dtmc, *request.model, probeOptions);
        std::vector<la::BitVector> maskBits;
        maskBits.reserve(probePlan->masks.size());
        for (const auto& mask : probePlan->masks) {
          maskBits.push_back(probe.evalStateFormula(*mask));
        }
        std::vector<std::vector<double>> rewardVectors;
        rewardVectors.reserve(rewardNames.size());
        for (const std::string& name : rewardNames) {
          rewardVectors.push_back(
              built->dtmc.evalReward(*request.model, name, runner));
        }

        dtmc::LabelRewardDigest digest;
        for (std::size_t m = 0; m < probePlan->masks.size(); ++m) {
          digest.addMask(pctl::structuralHash(*probePlan->masks[m]),
                         maskBits[m]);
        }
        for (std::size_t r = 0; r < rewardNames.size(); ++r) {
          digest.addReward(rewardNames[r], rewardVectors[r]);
        }
        const std::uint64_t quotientKey = util::hashCombine(
            key ^ kQuotientKeySalt, util::mix64(digest.hash()));

        std::vector<const la::BitVector*> maskPtrs;
        maskPtrs.reserve(maskBits.size());
        for (const la::BitVector& bits : maskBits) maskPtrs.push_back(&bits);
        std::vector<const std::vector<double>*> rewardPtrs;
        rewardPtrs.reserve(rewardVectors.size());
        for (const std::vector<double>& v : rewardVectors) {
          rewardPtrs.push_back(&v);
        }

        reducedBuilt = quotientFor(*built, quotientKey, maskPtrs, rewardPtrs,
                                   &quotientCacheHit);
        if (alias) recordAlias(*alias, quotientKey);
      }
      const reduce::ReductionInfo& info = *reducedBuilt->reduction;
      reductionStats.cacheHit = quotientCacheHit;
      reductionStats.statesBefore = info.statesBefore;
      reductionStats.statesAfter = info.statesAfter;
      reductionStats.transitionsBefore = info.transitionsBefore;
      reductionStats.transitionsAfter = info.transitionsAfter;
      reductionStats.refinementRounds = info.refinementRounds;
      if (info.statesAfter < info.statesBefore) {
        reductionStats.applied = true;
        built = std::move(reducedBuilt);
      }
      // Identity quotients (marker entries) are recorded but never applied.
    } catch (const std::exception& error) {
      // Reduction is an optimization, never a gatekeeper: semantic errors
      // (unknown atoms/rewards) fall through to the checker, which reports
      // them per property against the full model. The reason is kept.
      reductionStats = ReductionStats{};
      reductionStats.skipReason = error.what();
    } catch (...) {
      reductionStats = ReductionStats{};
      reductionStats.skipReason = "unknown exception";
    }
    reductionStats.reduceSeconds = reduceSpan.stopSeconds();
    response.timing.reduceSeconds = reductionStats.reduceSeconds;
    response.reduction = reductionStats;
  }

  // Parallel linear algebra: unless the request brings its own runner, la::
  // kernels (transient multiplies, masked bounded traversals, power
  // iteration) fan out over the engine pool, at the request's threshold and
  // SIMD target. Nested pool_.run is deadlock-free (the property task
  // drains its own sub-batch) and every kernel is bit-identical at any pool
  // size, so this only changes wall-clock.
  // Check phase: plan compilation ("pctl.plan", stamped into PlanStats by
  // the checker) plus plan execution. Group tasks run on pool threads, so
  // their spans parent through CheckOptions::traceParent rather than the
  // thread-local nesting.
  obs::Span checkSpan("engine.check", traceParent);
  mc::CheckOptions checkOptions = request.options.check;
  checkOptions.traceParent = checkSpan.id();
  checkOptions.elimination = reduce::eliminationSelected(
      response.reduction.applied, built->dtmc.numStates());
  if (checkOptions.exec.runner == nullptr && options_.parallelLinearAlgebra) {
    checkOptions.exec.runner = laRunnerFor(pool_);
  }
  const mc::Checker checker(built->dtmc, *request.model, checkOptions);

  // Plan across every parsed property of the request: bounded path
  // formulas advance as columns of one masked SpMM traversal, transient
  // horizons share one forward sweep, singles fan out over the pool — the
  // checker compiles and executes the plan (mc::Checker::checkAll), the
  // engine only maps indices around parse failures and surfaces the plan
  // counters on the response.
  const std::vector<mc::CheckResult> checks = checker.checkAll(
      planned, &response.plan,
      [this](std::vector<std::function<void()>> tasks) {
        pool_.run(std::move(tasks));
      });

  for (std::size_t j = 0; j < checks.size(); ++j) {
    AnalysisResult& result = response.results[slotOf[j]];
    const mc::CheckResult& check = checks[j];
    if (!check.ok()) {
      result.error = check.error;
      continue;
    }
    result.value = check.value;
    result.satisfied = check.satisfied;
    result.batched = check.batched;
    result.checkSeconds = check.checkSeconds;
    result.solver = check.solver;
  }

  response.timing.checkSeconds = checkSpan.stopSeconds();
  response.timing.planSeconds =
      parseSeconds + probePlanSeconds + response.plan.planSeconds;
  return response;
}

AnalysisResponse AnalysisEngine::analyzeSampling(const AnalysisRequest& request,
                                                 std::uint64_t key,
                                                 std::uint64_t traceParent) {
  AnalysisResponse response;
  response.backend = Backend::kSampling;
  response.modelKey = key;
  response.results.resize(request.properties.size());

  // Path chunks of one property fan out over the pool; nested run() is safe
  // (the property task drains its own chunk batch).
  const la::TaskRunner runner = laRunnerFor(pool_);

  obs::Span checkSpan("engine.check", traceParent);
  const std::uint64_t checkSpanId = checkSpan.id();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(request.properties.size());
  for (std::size_t i = 0; i < request.properties.size(); ++i) {
    response.results[i].property = request.properties[i];
    tasks.push_back([&, i, checkSpanId] {
      AnalysisResult& result = response.results[i];
      // Pool-thread task: parent the sampling span explicitly (the
      // thread-local nesting only links same-thread spans). smc::'s own
      // "smc.sample" span nests under this one on the task's thread.
      obs::Span propSpan("engine.property", checkSpanId);
      try {
        const pctl::Property property =
            parsedProperty(request.properties[i]);
        // Every property samples its own derived stream: identical
        // properties in one request stay statistically independent, and a
        // fixed request seed reproduces every estimate bit for bit.
        smc::SmcOptions smcOptions = request.options.smc;
        smcOptions.seed = smc::deriveSeed(request.options.smc.seed, i);
        if (property.kind == pctl::Property::Kind::kProb) {
          const pctl::ProbQuery& pq = property.prob;
          const bool inequalityBound =
              !pq.isQuery && (pq.boundOp == pctl::CmpOp::kGe ||
                              pq.boundOp == pctl::CmpOp::kGt ||
                              pq.boundOp == pctl::CmpOp::kLe ||
                              pq.boundOp == pctl::CmpOp::kLt);
          if (inequalityBound && pq.boundValue > 0.0 && pq.boundValue < 1.0) {
            // Bounded-probability property: decide via SPRT so `satisfied`
            // carries the requested alpha/beta error guarantee.
            smc::SprtOptions sprtOptions = request.options.sprt;
            sprtOptions.seed = smcOptions.seed;
            const smc::SprtOutcome outcome = smc::testPathProbability(
                *request.model, pq.path, pq.boundOp, pq.boundValue,
                sprtOptions);
            // No interval95 here: the SPRT stops adaptively, and a Wilson
            // interval on an optionally-stopped sample does not have its
            // nominal coverage. The guarantee lives in alpha/beta instead.
            result.value = outcome.observed.estimate();
            result.samples = outcome.pathsUsed;
            SprtVerdict verdict;
            verdict.decided =
                outcome.decision != stats::SprtDecision::kContinue;
            verdict.pathsUsed = outcome.pathsUsed;
            verdict.alpha = sprtOptions.alpha;
            verdict.beta = sprtOptions.beta;
            verdict.indifference = outcome.indifference;
            // Undecided within maxPaths: fall back to the point estimate
            // (decided=false flags the missing guarantee).
            result.satisfied =
                verdict.decided
                    ? outcome.holds
                    : pctl::evalCmp(pq.boundOp, result.value, pq.boundValue);
            result.sprt = verdict;
          } else {
            const smc::SmcEstimate estimate = smc::estimatePathProbability(
                *request.model, pq.path, smcOptions, runner);
            result.value = estimate.estimate();
            result.interval95 = estimate.satisfied.wilson(0.95);
            result.samples = estimate.satisfied.trials();
            if (!pq.isQuery) {
              // Degenerate or equality bounds: point-estimate comparison
              // (no SPRT hypotheses exist outside (0, 1)).
              result.satisfied =
                  pctl::evalCmp(pq.boundOp, result.value, pq.boundValue);
            }
          }
        } else if (property.reward.kind ==
                   pctl::RewardQuery::Kind::kInstantaneous) {
          const stats::RunningStats stats = smc::estimateInstantaneousReward(
              *request.model, property.reward.bound,
              property.reward.rewardName, smcOptions, runner);
          result.value = stats.mean();
          result.interval95 = meanInterval95(stats);
          result.samples = stats.count();
          applyRewardBound(property.reward, result);
        } else if (property.reward.kind ==
                   pctl::RewardQuery::Kind::kCumulative) {
          const stats::RunningStats stats = smc::estimateCumulativeReward(
              *request.model, property.reward.bound,
              property.reward.rewardName, smcOptions, runner);
          result.value = stats.mean();
          result.interval95 = meanInterval95(stats);
          result.samples = stats.count();
          applyRewardBound(property.reward, result);
        } else {
          result.error =
              "property requires the exact backend (bounded P-formulas, "
              "R=?[I=T] and R=?[C<=T] are estimable by sampling)";
        }
      } catch (const std::exception& e) {
        result.error = e.what();
      }
      result.checkSeconds = propSpan.stopSeconds();
    });
  }

  pool_.run(std::move(tasks));
  response.timing.checkSeconds = checkSpan.stopSeconds();
  return response;
}

std::vector<AnalysisResponse> AnalysisEngine::analyzeAll(
    const std::vector<AnalysisRequest>& requests) {
  std::vector<AnalysisResponse> responses(requests.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(requests.size());
  const std::uint64_t enqueuedNs = obs::monotonicNanos();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    tasks.push_back([&, i, enqueuedNs] {
      // A failing request must not take its siblings' responses down with
      // it: capture the failure per-response instead of rethrowing.
      const double queueSeconds =
          static_cast<double>(obs::monotonicNanos() - enqueuedNs) * 1e-9;
      try {
        responses[i] = analyzeQueued(requests[i], queueSeconds);
      } catch (const std::exception& e) {
        responses[i] = AnalysisResponse{};
        responses[i].backend = requests[i].options.backend;
        responses[i].error = e.what();
      }
    });
  }
  pool_.run(std::move(tasks));
  return responses;
}

}  // namespace mimostat::engine
