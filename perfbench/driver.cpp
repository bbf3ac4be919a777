// perfbench_driver — the paper-workload benchmark's measuring program.
//
// Drives engine::AnalysisEngine on the paper's own models in a closed loop
// from one client, checks every answer against an independent reference
// (mc::Checker on a fresh dtmc::buildExplicit) and writes the raw
// measurements as one JSON object. perfbench/run.py turns them into the
// benchmark's metrics; perfbench/trace_layers.py turns a traced run's
// Chrome-trace JSON into the per-layer metrics. The workloads, metrics and
// their rationale are documented in perfbench/NOTES.md.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --result <file> [--trace-file <file>]
//
// With --trace 0 the whole timed loop runs untraced. With --trace 1 the loop
// runs untraced for half the time (the overhead baseline), then with the
// process tracer on for the other half, and the benchmark adds its own
// spans around its calls into each module: the signature probe
// ("engine.key"), reference builds ("bench.reference"), the traced loop
// ("bench.loop") and the layer probes ("bench.layer.*").
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "dtmc/builder.hpp"
#include "dtmc/signature.hpp"
#include "engine/engine.hpp"
#include "la/simd.hpp"
#include "la/solver.hpp"
#include "la/spmv.hpp"
#include "lump/symmetry.hpp"
#include "mc/checker.hpp"
#include "mimo/model.hpp"
#include "obs/trace.hpp"
#include "pctl/plan.hpp"
#include "reduce/reduce.hpp"
#include "util/rng.hpp"
#include "viterbi/model_convergence.hpp"
#include "viterbi/model_full.hpp"
#include "viterbi/model_reduced.hpp"

namespace {

using namespace mimostat;

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ JSON

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += jsonNumber(values[i]);
  }
  return out + "]";
}

/// Flat JSON object builder (insertion order kept).
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += jsonString(key) + ":" + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, jsonNumber(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jsonString(v));
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------------ host

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
  brand.erase(std::find(brand.begin(), brand.end(), '\0'), brand.end());
  const auto first = brand.find_first_not_of(' ');
  const auto last = brand.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : brand.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

std::string hostFingerprint() {
  return JsonObject()
      .str("cpu_model", cpuModel())
      .num("nproc", std::thread::hardware_concurrency())
      .str("simd_target", la::simdTargetName(la::activeSimdTarget()))
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .dump();
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------- workloads

/// One request shape: a model plus its property list. The warm workloads
/// reuse a fixed set; the cold workload mints one per request.
struct Template {
  std::string label;
  /// Templates of one group are the same design family (the cold
  /// workload's 1x2 designs, say); the overhead ratio compares within it.
  std::string group;
  const dtmc::Model* model = nullptr;
  std::vector<std::string> properties;
  std::uint64_t boundedSteps = 0;
  std::uint64_t transientSteps = 0;
  /// Reference answers (independent path), one per property.
  std::vector<double> reference;
  std::string referenceError;
  bool hasReference = false;
};

struct Workload {
  std::string name;
  bool warm = true;
  engine::EngineOptions options;
  std::vector<std::unique_ptr<dtmc::Model>> models;
  std::vector<Template> templates;
  /// Template ids of each set-up call (fills the caches).
  std::vector<std::vector<std::size_t>> warmUpCalls;
  /// Template ids of the next client call (analyzeAll batch).
  std::function<std::vector<std::size_t>(Workload&)> nextCall;
  util::Xoshiro256 rng;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<engine::AnalysisEngine> engine;

  explicit Workload(std::uint64_t seed) : rng(seed) {}

  std::size_t addTemplate(std::string label, const dtmc::Model* model,
                          std::vector<std::string> properties) {
    Template t;
    t.label = std::move(label);
    t.group = t.label;
    t.model = model;
    t.properties = std::move(properties);
    std::vector<pctl::Property> parsed;
    for (const auto& text : t.properties) {
      parsed.push_back(pctl::PropertyCache::global().get(text));
    }
    const pctl::EvalPlan plan = pctl::buildPlan(parsed);
    t.boundedSteps = plan.boundedSteps();
    t.transientSteps = plan.transientSteps();
    templates.push_back(std::move(t));
    return templates.size() - 1;
  }

  template <typename M, typename... Args>
  const M* addModel(Args&&... args) {
    auto model = std::make_unique<M>(std::forward<Args>(args)...);
    const M* raw = model.get();
    models.push_back(std::move(model));
    return raw;
  }
};

const std::vector<std::string> kViterbiProperties{
    "P=? [ G<=300 !flag ]", "R=? [ I=100 ]", "R=? [ I=300 ]",
    "R=? [ I=600 ]",        "R=? [ I=1000 ]",
};
const std::vector<std::string> kMimoProperties{"R=? [ I=8 ]",
                                               "P=? [ F<=6 error ]"};

viterbi::ViterbiParams viterbiParams(int tracebackLength) {
  viterbi::ViterbiParams p;  // SNR 5 dB
  p.tracebackLength = tracebackLength;
  return p;
}

unsigned engineThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Shuffle in place with the workload's generator (Fisher-Yates).
void shuffle(std::vector<std::size_t>& ids, util::Xoshiro256& rng) {
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.nextBounded(i)]);
  }
}

/// Check-dominated: the reduced Viterbi decoders L=6 and L=7 at 5 dB, both
/// cached at set-up, each request carrying the Table I/III property set.
/// Requests come in blocks of three — two L=6, one L=7 — in seed-shuffled
/// order, so every run sees the same mix. Linear algebra runs on the calling
/// thread: fanning every sweep step out over all cores and waiting for the
/// slowest made the latency follow the shared host's scheduler, not the
/// program.
std::unique_ptr<Workload> makeViterbiWarmCheck(std::uint64_t seed) {
  auto w = std::make_unique<Workload>(seed);
  w->name = "viterbi_warm_check";
  w->options.threads = engineThreads();
  w->options.parallelLinearAlgebra = false;
  const auto* l6 = w->addModel<viterbi::ReducedViterbiModel>(viterbiParams(6));
  const auto* l7 = w->addModel<viterbi::ReducedViterbiModel>(viterbiParams(7));
  w->addTemplate("viterbi L=6", l6, kViterbiProperties);
  w->addTemplate("viterbi L=7", l7, kViterbiProperties);
  w->warmUpCalls = {{0}, {1}};
  auto block = std::make_shared<std::vector<std::size_t>>();
  w->nextCall = [block](Workload& self) {
    if (block->empty()) {
      *block = {0, 0, 1};
      shuffle(*block, self.rng);
    }
    const std::size_t id = block->back();
    block->pop_back();
    return std::vector<std::size_t>{id};
  };
  return w;
}

/// Build- and reduce-dominated: every request is a MIMO detector design not
/// seen before (1x2 and 1x4 strictly alternating, the seed picking which
/// comes first and every SNR), so every request misses the model and
/// quotient caches. The cache holds two entries — one design's model and
/// quotient — so from the first timed request on, every insert evicts the
/// previous design; strict alternation keeps the resident pair (and so the
/// peak memory) the same in every run.
std::unique_ptr<Workload> makeMimoColdBuild(std::uint64_t seed) {
  auto w = std::make_unique<Workload>(seed);
  w->name = "mimo_cold_build";
  w->warm = false;
  w->options.threads = engineThreads();
  w->options.maxCachedModels = 2;
  auto next1x2 = std::make_shared<bool>(w->rng.nextBit());
  w->nextCall = [next1x2](Workload& self) {
    const int nr = *next1x2 ? 2 : 4;  // receive antennas
    *next1x2 = !*next1x2;
    mimo::MimoParams params =
        nr == 2 ? mimo::mimo1x2Params() : mimo::mimo1x4Params();
    params.snrDb += 4.0 * self.rng.nextDouble() - 2.0;
    const auto* model = self.addModel<mimo::MimoDetectorModel>(params);
    char label[64];
    std::snprintf(label, sizeof(label), "mimo 1x%d %.4f dB", nr, params.snrDb);
    const std::size_t id = self.addTemplate(label, model, kMimoProperties);
    self.templates[id].group = "mimo 1x" + std::to_string(nr);
    return std::vector<std::size_t>{id};
  };
  return w;
}

/// Cache-read, queue and solver workload: closed-loop analyzeAll batches of
/// 17 requests in seed-shuffled order against a cache sized to keep every
/// model resident — the full Viterbi model M and both MIMO detectors (all
/// served from the quotient cache), reduced L=7 steady state (power
/// iteration) and the 13 Figure 2 traceback lengths on the shared
/// convergence model.
std::unique_ptr<Workload> makePaperWarmBatch(std::uint64_t seed) {
  auto w = std::make_unique<Workload>(seed);
  w->name = "paper_warm_batch";
  w->options.threads = engineThreads();
  w->options.maxCachedModels = 64;
  w->options.maxCacheBytes = 0;  // unlimited: every model stays resident
  const auto* full = w->addModel<viterbi::FullViterbiModel>(viterbiParams(6));
  const auto* m12 = w->addModel<mimo::MimoDetectorModel>(mimo::mimo1x2Params());
  const auto* m14 = w->addModel<mimo::MimoDetectorModel>(mimo::mimo1x4Params());
  const auto* l7 = w->addModel<viterbi::ReducedViterbiModel>(viterbiParams(7));
  viterbi::ViterbiParams convParams;
  convParams.snrDb = 8.0;
  convParams.tracebackLength = 8;
  const auto* conv =
      w->addModel<viterbi::ConvergenceViterbiModel>(convParams, 16);
  w->addTemplate("viterbi full M L=6", full,
                 {"P=? [ G<=300 !flag ]", "R=? [ I=300 ]"});
  w->addTemplate("mimo 1x2", m12, kMimoProperties);
  w->addTemplate("mimo 1x4", m14, kMimoProperties);
  w->addTemplate("viterbi L=7 steady", l7, {"R=? [ S ]"});
  for (int L = 2; L <= 14; ++L) {
    w->addTemplate("fig2 L=" + std::to_string(L), conv,
                   {"R{\"nc" + std::to_string(L) + "\"}=? [ I=400 ]"});
  }
  std::vector<std::size_t> all(w->templates.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  w->warmUpCalls = {all};
  w->nextCall = [all](Workload& self) {
    std::vector<std::size_t> batch = all;
    shuffle(batch, self.rng);
    return batch;
  };
  return w;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "viterbi_warm_check") return makeViterbiWarmCheck(seed);
  if (name == "mimo_cold_build") return makeMimoColdBuild(seed);
  if (name == "paper_warm_batch") return makePaperWarmBatch(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ------------------------------------------------------------ references

struct ReferenceStats {
  std::uint64_t builds = 0;
  std::uint64_t states = 0;
  double bytesPerState = 0.0;  // mean over builds
  std::uint64_t quotientBefore = 0;
  std::uint64_t quotientAfter = 0;
};

/// Plan-aware quotient of a built model, seeded exactly as the engine's
/// reduction stage seeds it (the plan's masks and every reward the
/// properties resolve). Runs only as a traced layer probe.
reduce::ReductionInfo quotientProbe(const dtmc::ExplicitDtmc& dtmc,
                                    const Template& t) {
  std::vector<pctl::Property> parsed;
  for (const auto& text : t.properties) {
    parsed.push_back(pctl::PropertyCache::global().get(text));
  }
  const pctl::EvalPlan plan = pctl::buildPlan(parsed);
  const mc::Checker checker(dtmc, *t.model);
  std::vector<la::BitVector> masks;
  for (const auto& mask : plan.masks) {
    masks.push_back(checker.evalStateFormula(*mask));
  }
  std::set<std::string> rewardNames;
  for (const auto& p : parsed) {
    if (p.kind == pctl::Property::Kind::kReward) {
      rewardNames.insert(p.reward.rewardName);
    }
  }
  std::vector<std::vector<double>> rewards;
  for (const auto& name : rewardNames) {
    rewards.push_back(dtmc.evalReward(*t.model, name));
  }
  std::vector<const la::BitVector*> maskPtrs;
  for (const auto& m : masks) maskPtrs.push_back(&m);
  std::vector<const std::vector<double>*> rewardPtrs;
  for (const auto& r : rewards) rewardPtrs.push_back(&r);
  return reduce::buildQuotient(dtmc, maskPtrs, rewardPtrs).info;
}

/// Reference answers by an independent path: a fresh dtmc::buildExplicit
/// and a sequential mc::Checker (no engine, no cache, no pool, no
/// quotient). Templates sharing a model share one build. `workers` > 1
/// spreads distinct models over that many threads.
ReferenceStats computeReferences(std::vector<Template>& templates,
                                 bool quotientProbes, unsigned workers) {
  std::vector<const dtmc::Model*> order;
  std::map<const dtmc::Model*, std::vector<std::size_t>> byModel;
  for (std::size_t i = 0; i < templates.size(); ++i) {
    if (templates[i].hasReference) continue;
    auto& ids = byModel[templates[i].model];
    if (ids.empty()) order.push_back(templates[i].model);
    ids.push_back(i);
  }
  std::vector<ReferenceStats> perModel(order.size());
  std::vector<std::function<void()>> tasks;
  for (std::size_t m = 0; m < order.size(); ++m) {
    tasks.push_back([&, m] {
      const obs::Span span("bench.reference");
      const dtmc::Model& model = *order[m];
      const auto& ids = byModel.at(order[m]);
      try {
        const dtmc::BuildResult build = dtmc::buildExplicit(model);
        ReferenceStats& stats = perModel[m];
        stats.builds = 1;
        stats.states = build.dtmc.numStates();
        stats.bytesPerState =
            static_cast<double>(engine::approxDtmcBytes(build.dtmc)) /
            static_cast<double>(stats.states);
        const mc::Checker checker(build.dtmc, model);
        for (const std::size_t id : ids) {
          Template& t = templates[id];
          std::vector<pctl::Property> parsed;
          for (const auto& text : t.properties) {
            parsed.push_back(checker.parsedProperty(text));
          }
          for (const auto& r : checker.checkAll(parsed)) {
            if (!r.ok()) t.referenceError = r.error;
            if (r.solver && !r.solver->converged) {
              t.referenceError = "reference solver did not converge";
            }
            t.reference.push_back(r.value);
          }
          t.hasReference = true;
        }
        if (quotientProbes) {
          const obs::Span probe("bench.layer.quotient");
          const reduce::ReductionInfo info =
              quotientProbe(build.dtmc, templates[ids.front()]);
          stats.quotientBefore = info.statesBefore;
          stats.quotientAfter = info.statesAfter;
        }
      } catch (const std::exception& e) {
        for (const std::size_t id : ids) {
          templates[id].referenceError = e.what();
          templates[id].hasReference = true;
        }
      }
    });
  }
  if (workers <= 1) {
    for (const auto& task : tasks) task();
  } else {
    engine::ThreadPool(workers - 1).run(std::move(tasks));  // + the caller
  }

  ReferenceStats stats;
  for (const ReferenceStats& pm : perModel) {
    stats.builds += pm.builds;
    stats.states += pm.states;
    stats.bytesPerState += pm.bytesPerState;
    stats.quotientBefore += pm.quotientBefore;
    stats.quotientAfter += pm.quotientAfter;
  }
  if (stats.builds > 0) stats.bytesPerState /= static_cast<double>(stats.builds);
  return stats;
}

// -------------------------------------------------------------- requests

/// One engine response, reduced to what the metrics and the correctness
/// gate need.
struct Record {
  std::size_t templ = 0;
  /// Sent by the timed loop (not by set-up or a layer probe).
  bool loop = false;
  bool traced = false;
  engine::PhaseTiming timing;
  bool cacheHit = false;
  bool reduced = false;
  bool reduceHit = false;
  double reduceSeconds = 0.0;
  std::uint64_t checkedNnz = 0;
  std::uint64_t tasksDeduped = 0;
  std::uint64_t traversalsSaved = 0;
  std::string requestError;
  std::vector<double> values;
  std::vector<std::string> errors;
  std::vector<bool> unconverged;
};

/// One client call: the templates go to the engine as one analyzeAll batch
/// (a batch of one for the single-request workloads, so its pool hand-off
/// is measured as queue wait; the calling thread runs the request itself,
/// as analyze() would). With `keyProbe` the benchmark first runs the
/// engine's structural signature probe on each request's model in an
/// "engine.key" span — the probe analyzeQueued runs without a span.
/// `forceQuotient` turns the reduction stage on whatever the model size.
/// Returns the call's client-observed wall-clock in milliseconds.
double call(Workload& w, const std::vector<std::size_t>& ids, bool loop,
            bool traced, bool keyProbe, std::vector<Record>& out,
            bool forceQuotient = false) {
  std::vector<engine::AnalysisRequest> requests;
  for (const std::size_t id : ids) {
    engine::AnalysisRequest& request = requests.emplace_back();
    request.model = w.templates[id].model;
    request.properties = w.templates[id].properties;
    if (forceQuotient) {
      request.options.reduction.quotient = reduce::Toggle::kOn;
    }
  }
  if (keyProbe) {
    for (const auto& request : requests) {
      const obs::Span span("engine.key");
      dtmc::SignatureOptions sigOptions;
      sigOptions.maxStates = request.options.stateBudget + 1;
      (void)dtmc::modelSignature(*request.model, sigOptions);
    }
  }
  const double start = nowSeconds();
  const std::vector<engine::AnalysisResponse> responses =
      w.engine->analyzeAll(requests);
  const double wallMs = (nowSeconds() - start) * 1e3;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const engine::AnalysisResponse& response = responses[i];
    Record r;
    r.templ = ids[i];
    r.loop = loop;
    r.traced = traced;
    r.timing = response.timing;
    r.cacheHit = response.cacheHit;
    r.reduced = response.reduction.applied;
    r.reduceHit = response.reduction.cacheHit;
    r.reduceSeconds = response.reduction.reduceSeconds;
    r.checkedNnz = r.reduced ? response.reduction.transitionsAfter
                             : response.transitions;
    r.tasksDeduped = response.plan.tasksDeduped;
    r.traversalsSaved = response.plan.traversalsSaved;
    r.requestError = response.error;
    for (const auto& result : response.results) {
      r.values.push_back(result.value);
      r.errors.push_back(result.error);
      r.unconverged.push_back(result.solver.has_value() &&
                              !result.solver->converged);
    }
    out.push_back(std::move(r));
  }
  return wallMs;
}

/// Closed loop for `seconds`: the next call goes out when the previous one
/// has returned. Appends each call's latency to `latencies`; returns the
/// loop's wall-clock seconds.
double runLoop(Workload& w, double seconds, bool traced,
               std::vector<Record>& out, std::vector<double>& latencies) {
  const double start = nowSeconds();
  while (nowSeconds() - start < seconds) {
    latencies.push_back(
        call(w, w.nextCall(w), true, traced, traced, out));
  }
  return nowSeconds() - start;
}

/// Set-up: models, engine, and (warm workloads) one pass over every
/// template so the model and quotient caches hold everything the loop
/// asks for. The cold workload sends its first two designs instead — one of
/// each family, so set-up time does not depend on which family the seed
/// draws first — and the loop does not pay first-touch costs.
void setUp(Workload& w, std::vector<Record>& out) {
  w.registry = std::make_unique<obs::MetricsRegistry>();
  engine::EngineOptions options = w.options;
  options.metrics = w.registry.get();
  w.engine = std::make_unique<engine::AnalysisEngine>(options);
  if (w.warm) {
    for (const auto& ids : w.warmUpCalls) {
      call(w, ids, false, false, false, out);
    }
  } else {
    for (int design = 0; design < 2; ++design) {
      call(w, w.nextCall(w), false, false, false, out);
    }
  }
}

// ------------------------------------------------------------ correctness

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;
};

/// Unreduced answers must equal the reference bit for bit; answers served
/// from a quotient must agree within 1e-9 (lumping is exact, accumulation
/// order is not). Errors and unconverged solvers fail too.
void verify(const std::vector<Record>& records,
            const std::vector<Template>& templates, Verdict& verdict) {
  const auto fail = [&verdict](const std::string& message) {
    ++verdict.failed;
    if (verdict.messages.size() < 10) verdict.messages.push_back(message);
  };
  for (const Record& r : records) {
    const Template& t = templates[r.templ];
    for (std::size_t i = 0; i < t.properties.size(); ++i) {
      ++verdict.attempted;
      const std::string where = t.label + ": " + t.properties[i];
      if (!r.requestError.empty()) {
        fail(where + ": request failed: " + r.requestError);
      } else if (i >= r.values.size() || !r.errors[i].empty()) {
        fail(where + ": " + (i < r.errors.size() ? r.errors[i] : "missing"));
      } else if (r.unconverged[i]) {
        fail(where + ": solver did not converge");
      } else if (!t.hasReference || !t.referenceError.empty() ||
                 i >= t.reference.size()) {
        fail(where + ": no reference: " + t.referenceError);
      } else {
        const double got = r.values[i];
        const double want = t.reference[i];
        const bool ok = r.reduced ? std::abs(got - want) <= 1e-9
                                  : std::memcmp(&got, &want, sizeof got) == 0;
        if (!ok) {
          char buf[160];
          std::snprintf(buf, sizeof(buf), ": got %.17g, reference %.17g (%s)",
                        got, want, r.reduced ? "quotient, 1e-9" : "bitwise");
          fail(where + buf);
        }
      }
    }
  }
}

// ------------------------------------------------------------ layer probes

/// Median seconds per call of each of `fns`, timed round-robin (nine rounds
/// of one batch of at least 20 ms per function) so drift on a shared host
/// spreads over every configuration alike.
std::vector<double> medianSecondsPerCall(
    const std::vector<std::function<void()>>& fns) {
  constexpr int rounds = 9;
  constexpr double minBatchSeconds = 0.02;
  std::vector<std::vector<double>> perCall(fns.size());
  for (const auto& fn : fns) fn();  // warm caches and output buffers
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t f = 0; f < fns.size(); ++f) {
      int calls = 0;
      const double start = nowSeconds();
      double elapsed = 0.0;
      do {
        fns[f]();
        ++calls;
        elapsed = nowSeconds() - start;
      } while (elapsed < minBatchSeconds);
      perCall[f].push_back(elapsed / calls);
    }
  }
  std::vector<double> medians;
  for (auto& samples : perCall) {
    std::sort(samples.begin(), samples.end());
    medians.push_back(samples[samples.size() / 2]);
  }
  return medians;
}

/// la:: kernel rows on the reduced L=7 Viterbi matrix (the check-dominated
/// workload's larger model): SpMM ns per nonzero per call at k=1 and k=8 on
/// the dispatched target and on each forced target, the 4-worker speedup,
/// the computed bytes one k=1 step touches, and the steady-state power
/// iteration the paper_warm_batch workload runs.
void laProbes(JsonObject& layers) {
  const obs::Span span("bench.layer.la");
  const viterbi::ReducedViterbiModel l7(viterbiParams(7));
  const dtmc::BuildResult build = dtmc::buildExplicit(l7);
  const la::CsrMatrix& A = build.dtmc.matrix();
  const double nnz = static_cast<double>(A.numNonZeros());
  const std::uint32_t n = A.numRows();

  for (const std::size_t k : {std::size_t{1}, std::size_t{8}}) {
    std::vector<double> X(static_cast<std::size_t>(n) * k);
    for (std::size_t i = 0; i < X.size(); ++i) {
      X[i] = 1.0 / static_cast<double>(1 + i % 7);
    }
    const std::string ks = "k" + std::to_string(k);
    const la::SimdTarget targets[] = {la::SimdTarget::kScalar,
                                      la::SimdTarget::kSse2,
                                      la::SimdTarget::kAvx2};
    // Dispatched, each forced target, then dispatched on a 4-worker pool.
    std::vector<la::Exec> execs(1);
    for (const la::SimdTarget target : targets) {
      execs.emplace_back().simd = target;
    }
    engine::ThreadPool pool(4);
    execs.emplace_back().runner = engine::laRunnerFor(pool);
    std::vector<std::vector<double>> outputs(execs.size());
    std::vector<std::function<void()>> fns;
    for (std::size_t e = 0; e < execs.size(); ++e) {
      fns.push_back([&, e] { la::spmm(A, X, k, outputs[e], execs[e]); });
    }
    const std::vector<double> seconds = medianSecondsPerCall(fns);
    layers.num("la.spmm_ns_per_nnz." + ks, seconds[0] * 1e9 / nnz);
    for (std::size_t t = 0; t < std::size(targets); ++t) {
      layers.num(std::string("la.spmm_ns_per_nnz.") + ks + "." +
                     la::simdTargetName(targets[t]),
                 seconds[t + 1] * 1e9 / nnz);
    }
    layers.num("la.spmm_speedup_threads4." + ks,
               seconds[0] / seconds.back());
  }
  // One k=1 step reads rowPtr, col, val and x and writes y once.
  layers.num("la.bytes_per_step",
             static_cast<double>(n + 1) * sizeof(std::uint64_t) +
                 nnz * (sizeof(std::uint32_t) + sizeof(double)) +
                 2.0 * n * sizeof(double));

  engine::ThreadPool pool(engineThreads());
  la::Exec exec;
  exec.runner = engine::laRunnerFor(pool);
  la::PowerResult power;
  for (int rep = 0; rep < 5; ++rep) {
    power = la::PowerIteration{}.run(A, build.dtmc.initialDistribution(),
                                     la::PowerOptions{}, exec);
  }
  layers.num("la.solve_iterations", static_cast<double>(power.stats.iterations));
}

// -------------------------------------------------------------- fidelity

std::string fidelityRow(const std::string& table, const std::string& quantity,
                        double ours, double paperLow, double paperHigh,
                        const std::string& status, const std::string& cause) {
  return JsonObject()
      .str("table", table)
      .str("quantity", quantity)
      .num("ours", ours)
      .raw("paper", jsonArray({paperLow, paperHigh}))
      .str("status", status)
      .str("cause", cause)
      .dump();
}

/// Paper-table values the workload's references already computed, next to
/// the paper's numbers (see NOTES.md for the status vocabulary).
std::vector<std::string> fidelityRows(const Workload& w) {
  std::vector<std::string> rows;
  const std::string quantizer =
      "the paper does not give its quantizer widths; ours (2-bit ADC, "
      "pmCap=6) mix faster and give a lower BER";
  if (w.name == "viterbi_warm_check") {
    const Template& l6 = w.templates[0];
    if (l6.reference.size() != kViterbiProperties.size()) return rows;
    rows.push_back(fidelityRow("I", "P1 L=6 5dB T=300", l6.reference[0], 3e-15,
                               3e-15, "shape-only",
                               "both astronomically small; " + quantizer));
    rows.push_back(fidelityRow("I", "P2 L=6 5dB T=300", l6.reference[2],
                               0.2394, 0.2394, "open", quantizer));
    const double paperT[] = {0.2373, 0.2394, 0.2397, 0.2398};
    const char* horizons[] = {"100", "300", "600", "1000"};
    for (int i = 0; i < 4; ++i) {
      rows.push_back(fidelityRow(
          "III", std::string("P2 L=6 5dB T=") + horizons[i],
          l6.reference[static_cast<std::size_t>(i + 1)], paperT[i], paperT[i],
          "open", "steady by T=100 in both; level gap: " + quantizer));
    }
  } else if (w.name == "paper_warm_batch") {
    const Template& m12 = w.templates[1];
    const Template& m14 = w.templates[2];
    if (m12.reference.empty() || m14.reference.empty()) return rows;
    rows.push_back(fidelityRow(
        "V", "BER 1x2 8dB", m12.reference[0], 0.277, 0.296, "open",
        "7x below the paper; noise normalization and quantizer calibration "
        "in comm/ not yet matched to the paper's"));
    rows.push_back(fidelityRow(
        "V", "BER 1x4", m14.reference[0], 1.08e-5, 1.08e-5, "match",
        "SNR set to 22 dB under our noise normalization to reach the "
        "paper's 12 dB operating point"));
    const std::string counts =
        "our quantizer widths differ from the paper's undocumented ones; the "
        "symmetry reduction factor lands in the same regime";
    for (const Template* t : {&m12, &m14}) {
      const auto* model = dynamic_cast<const mimo::MimoDetectorModel*>(t->model);
      const bool is12 = t == &m12;
      const lump::SymmetryReducedModel symmetric(*model,
                                                 model->symmetryBlocks());
      const double full = static_cast<double>(
          dtmc::countReachable(*model).numStates);
      const double reduced = static_cast<double>(
          dtmc::countReachable(symmetric).numStates);
      const std::string name = is12 ? "1x2" : "1x4";
      rows.push_back(fidelityRow("II", "states M " + name, full,
                                 is12 ? 569480 : 524288,
                                 is12 ? 569480 : 524288, "shape-only", counts));
      rows.push_back(fidelityRow("II", "states M_R " + name, reduced,
                                 is12 ? 32088 : 1320, is12 ? 32088 : 1320,
                                 "shape-only", counts));
    }
  }
  return rows;
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string resultPath;
  std::string traceFile;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--result") {
      args.resultPath = value;
    } else if (flag == "--trace-file") {
      args.traceFile = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.resultPath.empty()) {
    throw std::invalid_argument("--workload and --result are required");
  }
  if (args.trace && args.traceFile.empty()) {
    throw std::invalid_argument("--trace 1 needs --trace-file");
  }
  return args;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Traced over untraced mean request time, compared within each template
/// group (so a different design mix in the two halves does not bias it) and
/// weighted by the traced half's request count.
double traceOverheadRatio(const std::vector<Record>& records,
                          const std::vector<Template>& templates) {
  std::map<std::string, std::vector<double>> traced;
  std::map<std::string, std::vector<double>> untraced;
  for (const Record& r : records) {
    if (!r.loop) continue;
    (r.traced ? traced : untraced)[templates[r.templ].group].push_back(
        r.timing.totalSeconds);
  }
  double weighted = 0.0;
  double weight = 0.0;
  for (const auto& [group, times] : traced) {
    const auto base = untraced.find(group);
    if (base == untraced.end()) continue;
    const double n = static_cast<double>(times.size());
    weighted += n * mean(times) / mean(base->second);
    weight += n;
  }
  return weight == 0.0 ? 0.0 : weighted / weight;
}

/// Per-layer values read directly from responses, the metrics registry and
/// the reference builds; the span-derived ones are computed from the trace
/// by trace_layers.py.
void directLayers(const Workload& w, const std::vector<Record>& records,
                  const obs::HistogramSnapshot& taskWait, double hitRatio,
                  const ReferenceStats& refStats, JsonObject& layers,
                  std::string& tracedRequests) {
  std::vector<double> unattributed;
  std::vector<double> queue;
  std::vector<double> lookups;
  std::map<std::string, const Record*> firstByGroup;
  tracedRequests = "[";
  for (const Record& r : records) {
    if (r.reduceHit) lookups.push_back(r.reduceSeconds * 1e3);
    if (!r.loop || !r.traced) continue;
    const Template& templ = w.templates[r.templ];
    firstByGroup.emplace(templ.group, &r);
    const engine::PhaseTiming& t = r.timing;
    unattributed.push_back((t.totalSeconds - t.buildSeconds -
                            t.reduceSeconds - t.planSeconds - t.checkSeconds) *
                           1e3);
    queue.push_back(t.queueSeconds * 1e3);
    tracedRequests +=
        (tracedRequests.size() > 1 ? "," : "") +
        JsonObject()
            .num("nnz", static_cast<double>(r.checkedNnz))
            .num("bounded_steps", static_cast<double>(templ.boundedSteps))
            .num("transient_steps", static_cast<double>(templ.transientSteps))
            .dump();
  }
  tracedRequests += "]";
  // Plan counters of one request per template group: fixed by the property
  // sets, so they repeat exactly from run to run.
  std::uint64_t deduped = 0;
  std::uint64_t saved = 0;
  for (const auto& [group, record] : firstByGroup) {
    deduped += record->tasksDeduped;
    saved += record->traversalsSaved;
  }
  layers.num("engine.unattributed_ms", mean(unattributed))
      .num("engine.queue_ms", mean(queue))
      .num("engine.pool.task_wait_ms_p50", taskWait.p50() * 1e-6)
      .num("engine.cache_hit_ratio", hitRatio)
      .num("dtmc.bytes_per_state", refStats.bytesPerState)
      .num("pctl.tasks_deduped", static_cast<double>(deduped))
      .num("pctl.traversals_saved", static_cast<double>(saved))
      .num("reduce.state_ratio",
           refStats.quotientBefore == 0
               ? 0.0
               : static_cast<double>(refStats.quotientAfter) /
                     static_cast<double>(refStats.quotientBefore))
      .num("reduce.lookup_ms", mean(lookups))
      .num("obs.trace_overhead_ratio", traceOverheadRatio(records, w.templates));
}

/// The traced half's extra work: quotient-cache lookups on every workload
/// (each distinct model's template — the cold workload: its last design —
/// goes out twice more with the quotient stage forced on; the second is a
/// lookup), then the la:: kernel rows.
void layerProbes(Workload& w, std::vector<Record>& records,
                 JsonObject& layers) {
  {
    const obs::Span span("bench.layer.lookup");
    std::set<const dtmc::Model*> seen;
    std::vector<std::size_t> ids;
    for (std::size_t i = w.templates.size(); i-- > 0;) {
      if (seen.insert(w.templates[i].model).second) ids.push_back(i);
      if (!w.warm) break;
    }
    for (int rep = 0; rep < 2; ++rep) {
      for (const std::size_t id : ids) {
        call(w, {id}, false, true, false, records, true);
      }
    }
  }
  laProbes(layers);
}

int run(const Args& args) {
  obs::Tracer& tracer = obs::Tracer::global();

  // Warm workloads: references first, sequentially, on their own instance
  // (same seed, same template order), so their builds are freed before the
  // engine fills its caches and peak memory does not depend on scheduling.
  const std::unique_ptr<Workload> refs = makeWorkload(args.workload, args.seed);
  ReferenceStats refStats;
  std::vector<std::string> fidelity;
  if (refs->warm) {
    tracer.setEnabled(args.trace);
    refStats = computeReferences(refs->templates, args.trace, 1);
    tracer.setEnabled(false);
    fidelity = fidelityRows(*refs);
  }

  std::unique_ptr<Workload> w;
  std::vector<double> setupSeconds;
  std::vector<Record> records;
  const auto timedSetUp = [&] {
    const double start = nowSeconds();
    w = makeWorkload(args.workload, args.seed);
    setUp(*w, records);
    setupSeconds.push_back(nowSeconds() - start);
  };
  timedSetUp();
  if (refs->warm) {
    for (std::size_t i = 0; i < refs->templates.size(); ++i) {
      const Template& ref = refs->templates[i];
      w->templates[i].reference = ref.reference;
      w->templates[i].referenceError = ref.referenceError;
      w->templates[i].hasReference = ref.hasReference;
    }
  }

  // Timed loop, tracing off (half the time with --trace 1).
  std::vector<double> latencies;
  w->registry->reset();
  const double loopSeconds = runLoop(
      *w, args.trace ? args.seconds / 2 : args.seconds, false, records,
      latencies);
  const double peakRss = peakRssMb();
  const obs::HistogramSnapshot taskWait =
      w->registry->histogramSnapshot("engine.pool.task_wait_ns");

  JsonObject layers;
  if (args.trace) {
    tracer.setEnabled(true);
    std::vector<double> tracedLatencies;
    {
      const obs::Span loop("bench.loop");
      runLoop(*w, args.seconds / 2, true, records, tracedLatencies);
    }
    layerProbes(*w, records, layers);
  }
  w->engine.reset();

  // setup_s is the median of three set-ups; the two extra ones run after
  // the timed loop (and after peak memory was read), each on a fresh
  // instance, and only their time is kept.
  std::unique_ptr<Workload> measured = std::move(w);
  if (!args.trace) {
    std::vector<Record> discarded;
    for (int extra = 0; extra < 2; ++extra) {
      std::swap(records, discarded);
      timedSetUp();
      std::swap(records, discarded);
      w.reset();
    }
  }
  w = std::move(measured);

  if (!w->warm) {
    refStats = computeReferences(w->templates, args.trace,
                                 std::max(1u, engineThreads() / 2));
  }
  tracer.setEnabled(false);

  Verdict verdict;
  verify(records, w->templates, verdict);

  // Cache invariants over the timed loop.
  std::uint64_t loopRequests = 0;
  std::uint64_t untracedRequests = 0;
  std::uint64_t loopHits = 0;
  bool invariantsOk = true;
  for (const Record& r : records) {
    if (!r.loop) continue;
    ++loopRequests;
    untracedRequests += r.traced ? 0 : 1;
    loopHits += r.cacheHit ? 1 : 0;
    const bool reduceOk = w->warm ? (!r.reduced || r.reduceHit) : !r.reduceHit;
    if (r.cacheHit != w->warm || !reduceOk) invariantsOk = false;
  }
  if (!invariantsOk) {
    verdict.messages.push_back(
        w->warm ? "cache invariant: a warm request missed the model or "
                  "quotient cache"
                : "cache invariant: a cold request hit the model or quotient "
                  "cache");
  }
  const double hitRatio = loopRequests == 0
                              ? 0.0
                              : static_cast<double>(loopHits) /
                                    static_cast<double>(loopRequests);

  std::string messages = "[";
  for (std::size_t i = 0; i < verdict.messages.size(); ++i) {
    messages += (i > 0 ? "," : "") + jsonString(verdict.messages[i]);
  }
  std::string fidelityJson = "[";
  for (std::size_t i = 0; i < fidelity.size(); ++i) {
    fidelityJson += (i > 0 ? "," : "") + fidelity[i];
  }
  JsonObject result;
  result.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .raw("host", hostFingerprint())
      .raw("setup_s", jsonArray(setupSeconds))
      .num("loop_s", loopSeconds)
      .num("loop_requests", static_cast<double>(untracedRequests))
      .raw("latency_ms", jsonArray(latencies))
      .num("peak_rss_mb", peakRss)
      .num("attempted", static_cast<double>(verdict.attempted))
      .num("failed", static_cast<double>(verdict.failed))
      .raw("invariants_ok", invariantsOk ? "true" : "false")
      .raw("failures", messages + "]")
      .raw("fidelity", fidelityJson + "]");

  if (args.trace) {
    std::string tracedRequests;
    directLayers(*w, records, taskWait, hitRatio, refStats, layers,
                 tracedRequests);
    result.raw("layers", layers.dump())
        .raw("traced_requests", tracedRequests)
        .num("reference_states", static_cast<double>(refStats.states))
        .str("trace_file", args.traceFile);
    if (!obs::TraceWriter(tracer).writeFile(args.traceFile)) {
      throw std::runtime_error("cannot write " + args.traceFile);
    }
  }

  std::ofstream out(args.resultPath);
  out << result.dump() << "\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write " + args.resultPath);

  std::sort(setupSeconds.begin(), setupSeconds.end());
  std::printf("%s seed %llu: %llu loop requests in %.2f s, setup %.3f s "
              "(median of %d), %llu/%llu properties failed, cache hit ratio "
              "%.3f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(loopRequests), loopSeconds,
              setupSeconds[setupSeconds.size() / 2],
              static_cast<int>(setupSeconds.size()),
              static_cast<unsigned long long>(verdict.failed),
              static_cast<unsigned long long>(verdict.attempted), hitRatio);
  for (const auto& message : verdict.messages) {
    std::printf("  FAIL %s\n", message.c_str());
  }
  return verdict.failed == 0 && invariantsOk ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
