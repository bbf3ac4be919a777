// AnalysisEngine — batched, cached, multi-backend guarantee checking.
//
// The paper's workflow is "build a DTMC once, then check many pCTL
// properties against it" (Tables I-V each sweep properties and horizons over
// one design). The engine makes that workflow first-class:
//
//   1. Model cache: built ExplicitDtmcs are keyed by the hash of one
//      reachability exploration (dtmc::explore), so repeated requests
//      against the same design skip the build. The same exploration keeps
//      the normalized CSR: a miss assembles the DTMC from it, a hit drops
//      it — a request explores its state space at most once. After an
//      exact exploration the engine also records the model's parameter
//      fingerprint (dtmc::Model::fingerprint) on the cache entry, so a
//      later request whose model has the same fingerprint skips the
//      exploration altogether (a warm request costs a hash lookup). The
//      fingerprint is the only way to skip it: a cache key is never taken
//      on the caller's word. A fingerprinted model's plan-aware quotient
//      is aliased the same way (fingerprint, the plan's masks and reward
//      names), so a warm request reaches it without evaluating masks and
//      rewards over the full model. Aliases go with their entry on
//      eviction.
//      Cached DTMCs store transition structure only; atoms/rewards always
//      re-resolve through the requesting model.
//      Beside the entries, the engine retains the skeleton (state table,
//      row pointers, columns; dtmc::Skeleton) of recent full explorations
//      under their model's structure fingerprint
//      (dtmc::Model::structureFingerprint) and build options, at most
//      maxCachedModels skeletons of at most maxCacheBytes, least recently
//      used first out. A fingerprint miss whose structure fingerprint names
//      one re-values it (dtmc::revalue: the same exploration, without the
//      BFS) instead of exploring; a re-valuation that finds a different
//      structure falls back to dtmc::explore, whose skeleton replaces the
//      stale one. Either way the request is a model-cache miss.
//   2. Evaluation planning: the request's property set is compiled by
//      pctl::buildPlan into a deduplicated task DAG (mc::Checker::checkAll
//      executes it). All bounded path formulas (U<=k / F<=k / G<=k / X)
//      advance as columns of ONE masked SpMM traversal per step, all
//      R=?[I=T] / R=?[C<=T] properties share ONE forward transient sweep
//      to the maximum horizon, and structurally equal subformulas are
//      evaluated once. Batched values are bit-identical to per-call
//      checking; AnalysisResponse::plan reports tasksPlanned /
//      tasksDeduped / traversalsSaved.
//   3. Concurrency: independent requests (analyzeAll) and the
//      property groups within a request run on a shared thread pool;
//      results keep deterministic request/property order.
//   4. Backend selection: exact mc::Checker, or smc:: sampling — chosen per
//      request, automatically falling back to sampling when the reachable
//      state count exceeds the request's state budget (the
//      rate-reliability-complexity trade-off made explicit). The sampling
//      backend estimates bounded P-formulas, R=?[I=T] and R=?[C<=T], and
//      decides bounded-probability properties (P>=theta [...]) with Wald's
//      SPRT at the request's alpha/beta error levels. Every property draws
//      from its own seed (derived from the request seed and the property
//      index) in counter-derived path chunks, so sampled results are
//      bit-identical for a fixed seed at any pool size.
//
// Callers own their engine: construct one AnalysisEngine per process (or per
// test) and keep it alive while its cache should be reused. Several property
// sets checked against one fingerprinted model share one build and one
// exploration; a model without a fingerprint is explored once per request.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "engine/request.hpp"
#include "engine/result.hpp"
#include "engine/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "pctl/ast.hpp"
#include "reduce/reduce.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mimostat::engine {

struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Model-cache capacity (completed builds; evicted least-recently-used).
  std::size_t maxCachedModels = 8;
  /// Model-cache byte budget over the resident DTMCs (states + transitions
  /// accounting, see BuiltModel::approxBytes). LRU entries are evicted while
  /// the total exceeds this, so one huge model cannot pin the cache.
  /// 0 = unlimited.
  std::uint64_t maxCacheBytes = 1ull << 30;
  /// Fan la:: kernels (transient multiplies, masked bounded traversals,
  /// power iteration) out over the engine pool on the exact backend.
  /// Results are bit-identical at any pool size, so this is purely a
  /// throughput knob. A runner the request brings in
  /// RequestOptions::check.exec wins over the engine's; the request's
  /// check.exec also carries the nnz threshold and SIMD target the kernels
  /// use (la::Exec's defaults unless the request sets them).
  bool parallelLinearAlgebra = true;
  /// Metrics sink for engine counters, pool histograms and the
  /// request-latency histogram; EngineStats reads its counts from it.
  /// nullptr gives the engine a registry of its own, so an engine only ever
  /// reports its own requests. Engines sharing an injected registry share
  /// its counts.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Counters exposed for tests, sweeps and ops dashboards. The counts are
/// read from the engine's metrics registry ("engine.*"); the cache levels
/// from the cache itself.
struct EngineStats {
  /// DTMC builds actually performed (cache misses).
  std::uint64_t builds = 0;
  /// ensureBuilt calls served from cache (joining an in-flight build
  /// counts).
  std::uint64_t cacheHits = 0;
  /// Entries currently resident (including in-flight builds).
  std::size_t cachedModels = 0;
  /// Approximate bytes held by completed cached builds.
  std::uint64_t cacheBytes = 0;
  /// Plan-aware bisimulation quotients actually refined (quotient-cache
  /// misses, identity quotients included).
  std::uint64_t quotientBuilds = 0;
  /// Reduction stages served from the quotient cache (joining an in-flight
  /// refinement counts).
  std::uint64_t quotientHits = 0;
  /// Requests answered (analyze/analyzeAll, failed ones included).
  std::uint64_t requests = 0;
  /// Request-latency percentiles (queue wait included) from the engine's
  /// "engine.request_ns" histogram — the serve:: readiness numbers.
  /// Diagnostics only; 0 until the first request completes.
  double p50RequestSeconds = 0.0;
  double p90RequestSeconds = 0.0;
  double p99RequestSeconds = 0.0;
};

/// A built model as held by the engine's cache.
struct BuiltModel {
  dtmc::ExplicitDtmc dtmc;
  std::uint32_t reachabilityIterations = 0;
  double buildSeconds = 0.0;
  /// The structural signature this entry is cached under.
  std::uint64_t signature = 0;
  /// Approximate resident size of `dtmc` (CSR arrays + state table, 8 B a
  /// state when packed + initial distribution) used for the cache's byte
  /// accounting.
  std::uint64_t approxBytes = 0;
  /// Set on quotient entries only: the counters of the plan-aware
  /// bisimulation quotient this entry holds (no block map: nothing past the
  /// quotient reads one). An entry whose counters report statesAfter ==
  /// statesBefore is an identity-quotient marker — `dtmc` is empty and the
  /// engine never applies it (it exists so repeat requests skip the
  /// refinement, at sizeof(BuiltModel) bytes).
  std::optional<reduce::ReductionInfo> reduction;
};

/// Approximate resident bytes of an explicit DTMC (the BuiltModel/cache
/// accounting unit).
[[nodiscard]] std::uint64_t approxDtmcBytes(const dtmc::ExplicitDtmc& dtmc);

class AnalysisEngine {
 public:
  explicit AnalysisEngine(EngineOptions options = {});
  ~AnalysisEngine();

  AnalysisEngine(const AnalysisEngine&) = delete;
  AnalysisEngine& operator=(const AnalysisEngine&) = delete;

  /// Answer one request (blocking). Property groups run on the pool.
  [[nodiscard]] AnalysisResponse analyze(const AnalysisRequest& request);

  /// Answer independent requests concurrently; responses come back in
  /// request order regardless of scheduling.
  [[nodiscard]] std::vector<AnalysisResponse> analyzeAll(
      const std::vector<AnalysisRequest>& requests);

  /// Build (or fetch from cache) the explicit DTMC for a model. Concurrent
  /// calls for the same key share one build. A model whose fingerprint
  /// names a resident entry is served from it; otherwise the model is
  /// explored once for its cache key (or re-valued on a retained skeleton,
  /// see "Model cache"), and a miss builds from that same exploration.
  /// When `cacheHit` is non-null it is set to whether the entry was served
  /// from cache (joining an in-flight build counts as a hit).
  [[nodiscard]] std::shared_ptr<const BuiltModel> ensureBuilt(
      const dtmc::Model& model, const dtmc::BuildOptions& buildOptions = {},
      bool* cacheHit = nullptr);

  /// Memoized property parse shared by every request (delegates to the
  /// process-wide pctl::PropertyCache::global()).
  [[nodiscard]] pctl::Property parsedProperty(const std::string& text);

  // --- instrumentation (tests, ops) ---
  [[nodiscard]] EngineStats stats() const;
  void clearModelCache();

  [[nodiscard]] std::size_t threadCount() const { return pool_.threadCount(); }

 private:
  struct CacheSlot {
    std::shared_future<std::shared_ptr<const BuiltModel>> future;
    std::uint64_t lastUsed = 0;
    /// Approximate bytes of the completed build; 0 while in flight.
    std::uint64_t bytes = 0;
    /// Fingerprint aliases (fingerprintKeys_ entries) naming this slot.
    std::vector<std::uint64_t> aliases;
  };
  using CacheMap = std::unordered_map<std::uint64_t, CacheSlot>;

  /// Evict ready LRU entries down to the entry-count and byte budgets.
  void evictLocked() MIMOSTAT_REQUIRES(cacheMutex_);
  /// Drop one slot with its bytes and fingerprint aliases.
  void eraseSlotLocked(CacheMap::iterator slot) MIMOSTAT_REQUIRES(cacheMutex_);

  /// The cache key of the resident entry `model`'s fingerprint is aliased
  /// to (under `build`'s options), counting a fingerprint hit; nullopt
  /// when the model has no fingerprint or no entry carries it.
  [[nodiscard]] std::optional<std::uint64_t> fingerprintKey(
      const dtmc::Model& model, const dtmc::BuildOptions& build);
  /// Alias `model`'s fingerprint to the entry under `key`, if still
  /// resident. Only after an exact exploration produced `key` from `model`.
  void recordFingerprint(const dtmc::Model& model,
                         const dtmc::BuildOptions& build, std::uint64_t key);
  /// `model`'s exploration under `options`: the skeleton retained under
  /// its structure fingerprint re-valued when one fits (counting a hit, or
  /// a fallback when the re-valuation finds another structure), else
  /// dtmc::explore on the pool. An exact, matrix-keeping explore of a model
  /// with a structure fingerprint has its skeleton detached (shared with
  /// the build assembled from it) and retained in place of any older one;
  /// the least recently used skeletons past the bounds are dropped.
  [[nodiscard]] dtmc::Exploration exploreModel(
      const dtmc::Model& model, const dtmc::BuildOptions& build,
      const dtmc::ExploreOptions& options);
  /// Add `alias` to fingerprintKeys_ for the slot under `key`, if still
  /// resident; the slot lists it, so eviction drops it.
  void recordAlias(std::uint64_t alias, std::uint64_t key);
  /// The quotient entry `alias` names, joined under one lock hold as
  /// getOrCompute's hit path joins (counting a quotient hit and an alias
  /// hit); nullptr when no resident slot carries the alias.
  [[nodiscard]] std::shared_ptr<const BuiltModel> quotientByAlias(
      std::uint64_t alias);
  /// A hit on `slot`: count it, bump its LRU stamp and share its future.
  [[nodiscard]] std::shared_future<std::shared_ptr<const BuiltModel>>
  joinLocked(CacheSlot& slot, bool quotient) MIMOSTAT_REQUIRES(cacheMutex_);

  /// The model cache's one fill primitive (builds and quotients): the entry
  /// under `key`, computed and inserted on a miss. Concurrent calls for one
  /// key share one computation (joiners receive its exception; a failure
  /// leaves no entry). `quotient` picks the registry counters; `cacheHit`
  /// reports a hit when non-null.
  [[nodiscard]] std::shared_ptr<const BuiltModel> getOrCompute(
      std::uint64_t key, bool quotient, bool* cacheHit,
      const std::function<std::shared_ptr<const BuiltModel>()>& compute);

  /// Fetch or refine the plan-aware bisimulation quotient of `full` under
  /// `quotientKey` (structural cache key + label/reward digest). Quotients
  /// share the model cache's slots, byte accounting and LRU eviction;
  /// concurrent calls for the same key join one refinement. The returned
  /// entry always carries BuiltModel::reduction (possibly an identity
  /// marker).
  [[nodiscard]] std::shared_ptr<const BuiltModel> quotientFor(
      const BuiltModel& full, std::uint64_t quotientKey,
      const std::vector<const la::BitVector*>& masks,
      const std::vector<const std::vector<double>*>& rewards, bool* cacheHit);

  /// analyze() with a measured queue wait (analyzeAll tasks pass the
  /// enqueue timestamp so the wait lands in timing.queueSeconds and the
  /// latency histogram). Opens the per-request "engine.analyze" span.
  AnalysisResponse analyzeQueued(const AnalysisRequest& request,
                                 double queueSeconds);
  /// `exploration` is the request's key exploration (null after a
  /// fingerprint hit).
  AnalysisResponse analyzeExact(const AnalysisRequest& request,
                                std::uint64_t key,
                                dtmc::Exploration* exploration,
                                std::uint64_t traceParent);
  AnalysisResponse analyzeSampling(const AnalysisRequest& request,
                                   std::uint64_t key,
                                   std::uint64_t traceParent);

  /// Set in the constructor, immutable afterwards.
  /// lint:allow(guarded-by: constructor-initialized, read-only after)
  EngineOptions options_;
  /// The registry used when EngineOptions::metrics is null. Declared before
  /// pool_, which records into it.
  /// lint:allow(guarded-by: owns its own mutex)
  obs::MetricsRegistry ownMetrics_;
  /// Internally synchronized. lint:allow(guarded-by: owns its own mutex)
  ThreadPool pool_;
  /// Resolved once in the constructor; handles are internally synchronized
  /// sharded atomics. lint:allow(guarded-by: constructor-initialized, read-only after)
  obs::MetricsRegistry* metrics_;
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Histogram requestLatencyNs_;
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Counter buildCounter_;
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Counter cacheHitCounter_;
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Counter quotientBuildCounter_;
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Counter quotientHitCounter_;
  /// Requests and ensureBuilt calls whose fingerprint skipped the key
  /// exploration. lint:allow(guarded-by: internally synchronized handle)
  obs::Counter fingerprintHitCounter_;
  /// Reduction stages whose quotient alias skipped the full-model mask and
  /// reward evaluation.
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Counter quotientAliasHitCounter_;
  /// Explorations re-valued from a skeleton, and re-valuations that fell
  /// back to exploring. lint:allow(guarded-by: internally synchronized handle)
  obs::Counter skeletonHitCounter_;
  /// lint:allow(guarded-by: internally synchronized handle)
  obs::Counter skeletonFallbackCounter_;

  mutable util::Mutex cacheMutex_;
  CacheMap modelCache_ MIMOSTAT_GUARDED_BY(cacheMutex_);
  /// Aliases -> key of a resident slot (which lists the alias in
  /// CacheSlot::aliases): cacheKeyFor(fingerprint, build options) names a
  /// full build, a quotient alias (fingerprint, plan masks, reward names)
  /// names a quotient.
  std::unordered_map<std::uint64_t, std::uint64_t> fingerprintKeys_
      MIMOSTAT_GUARDED_BY(cacheMutex_);
  /// Retained skeletons by structure key (cacheKeyFor(structure
  /// fingerprint, build options)), most recently used first.
  std::vector<std::pair<std::uint64_t, dtmc::Skeleton>> skeletons_
      MIMOSTAT_GUARDED_BY(cacheMutex_);
  std::uint64_t useCounter_ MIMOSTAT_GUARDED_BY(cacheMutex_) = 0;
  std::uint64_t cacheBytes_ MIMOSTAT_GUARDED_BY(cacheMutex_) = 0;
};

}  // namespace mimostat::engine
