#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "mc/checker.hpp"
#include "mimo/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_models.hpp"
#include "util/rng.hpp"

namespace mimostat {
namespace {

// ----------------------------------------------------------- histogram math

TEST(ObsHistogramBuckets, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(obs::histogramBucketIndex(v), v);
    EXPECT_EQ(obs::histogramBucketLowerBound(v), v);
    EXPECT_EQ(obs::histogramBucketUpperBound(v), v + 1);
  }
}

TEST(ObsHistogramBuckets, BoundsContainTheirValues) {
  util::Xoshiro256 rng(2024);
  for (int i = 0; i < 20000; ++i) {
    // Spread values across every octave, not just the top of the u64 range.
    const std::uint64_t value = rng() >> rng.nextBounded(64);
    const std::size_t bucket = obs::histogramBucketIndex(value);
    ASSERT_LT(bucket, obs::kHistogramBuckets);
    EXPECT_LE(obs::histogramBucketLowerBound(bucket), value);
    if (bucket + 1 < obs::kHistogramBuckets) {
      EXPECT_LT(value, obs::histogramBucketUpperBound(bucket));
    }
  }
}

TEST(ObsHistogramBuckets, BucketsTileTheRange) {
  // Consecutive buckets must tile [0, 2^64) with no gaps or overlaps, and
  // the index function must map each bucket's lower bound back to itself.
  for (std::size_t b = 0; b + 1 < obs::kHistogramBuckets; ++b) {
    EXPECT_EQ(obs::histogramBucketUpperBound(b),
              obs::histogramBucketLowerBound(b + 1));
    EXPECT_EQ(obs::histogramBucketIndex(obs::histogramBucketLowerBound(b)), b);
  }
}

TEST(ObsHistogram, PercentileLandsInOracleBucket) {
  obs::MetricsRegistry registry;
  const obs::Histogram hist = registry.histogram("test.latency_ns");

  util::Xoshiro256 rng(7);
  std::vector<std::uint64_t> values;
  values.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform-ish spread, the shape of real latency distributions.
    const std::uint64_t value = rng.nextBounded(1u << 20) >> rng.nextBounded(12);
    values.push_back(value);
    hist.record(value);
  }
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  const obs::HistogramSnapshot snap =
      registry.histogramSnapshot("test.latency_ns");
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.min, sorted.front());
  EXPECT_EQ(snap.max, sorted.back());
  std::uint64_t total = 0;
  for (const auto v : values) total += v;
  EXPECT_EQ(snap.sum, total);

  for (const double q : {0.10, 0.50, 0.90, 0.99, 1.0}) {
    // Nearest-rank oracle on the sorted vector.
    const auto rank = static_cast<std::size_t>(std::max<double>(
        1.0, std::ceil(q * static_cast<double>(sorted.size()))));
    const std::uint64_t exact = sorted[rank - 1];
    const double estimate = snap.percentile(q);
    EXPECT_EQ(obs::histogramBucketIndex(
                  static_cast<std::uint64_t>(estimate)),
              obs::histogramBucketIndex(exact))
        << "q=" << q << " estimate=" << estimate << " exact=" << exact;
    // Log-bucket guarantee: at most 25% relative error (plus interpolation
    // clamping at the observed max).
    EXPECT_LE(estimate, static_cast<double>(snap.max) + 1.0);
  }
}

TEST(ObsHistogram, EmptyAndSingleValue) {
  obs::MetricsRegistry registry;
  const obs::Histogram hist = registry.histogram("h");
  obs::HistogramSnapshot snap = registry.histogramSnapshot("h");
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.percentile(0.5), 0.0);

  hist.record(777);
  snap = registry.histogramSnapshot("h");
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min, 777u);
  EXPECT_EQ(snap.max, 777u);
  EXPECT_EQ(obs::histogramBucketIndex(
                static_cast<std::uint64_t>(snap.percentile(0.5))),
            obs::histogramBucketIndex(777));
}

TEST(ObsHistogram, UnregisteredNameYieldsEmptySnapshot) {
  obs::MetricsRegistry registry;
  const obs::HistogramSnapshot snap = registry.histogramSnapshot("missing");
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(registry.snapshot().histogram("missing"), nullptr);
}

// ------------------------------------------------------ registry shard merge

void hammerRegistry(obs::MetricsRegistry& registry, std::size_t threads) {
  engine::ThreadPool pool(threads);
  const obs::Counter counter = registry.counter("test.events");
  const obs::Gauge gauge = registry.gauge("test.level");
  const obs::Histogram hist = registry.histogram("test.values");

  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 500;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    tasks.push_back([&, t] {
      for (std::uint64_t i = 0; i < kPerTask; ++i) {
        counter.inc();
        gauge.add(1);
        gauge.sub(1);
        hist.record(t * kPerTask + i);
      }
    });
  }
  pool.run(std::move(tasks));

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counterValue("test.events"), kTasks * kPerTask);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 0);  // "test.level"
  const obs::HistogramSnapshot* values = snap.histogram("test.values");
  ASSERT_NE(values, nullptr);
  EXPECT_EQ(values->count, kTasks * kPerTask);
  EXPECT_EQ(values->min, 0u);
  EXPECT_EQ(values->max, kTasks * kPerTask - 1);
  // Sum of 0..N-1 — every recorded value accounted for exactly once across
  // all shards.
  const std::uint64_t n = kTasks * kPerTask;
  EXPECT_EQ(values->sum, n * (n - 1) / 2);
}

TEST(ObsRegistry, ShardMergeOneThread) {
  obs::MetricsRegistry registry;
  hammerRegistry(registry, 1);
}

TEST(ObsRegistry, ShardMergeTwoThreads) {
  obs::MetricsRegistry registry;
  hammerRegistry(registry, 2);
}

TEST(ObsRegistry, ShardMergeEightThreads) {
  obs::MetricsRegistry registry;
  hammerRegistry(registry, 8);
}

TEST(ObsRegistry, ResetZeroesButKeepsHandles) {
  obs::MetricsRegistry registry;
  const obs::Counter counter = registry.counter("c");
  const obs::Histogram hist = registry.histogram("h");
  counter.add(5);
  hist.record(123);
  registry.reset();
  EXPECT_EQ(registry.snapshot().counterValue("c"), 0u);
  EXPECT_EQ(registry.histogramSnapshot("h").count, 0u);
  // Handles issued before reset() still point at live storage.
  counter.add(2);
  hist.record(9);
  EXPECT_EQ(registry.snapshot().counterValue("c"), 2u);
  EXPECT_EQ(registry.histogramSnapshot("h").count, 1u);
}

TEST(ObsRegistry, DefaultConstructedHandlesAreInert) {
  const obs::Counter counter;
  const obs::Gauge gauge;
  const obs::Histogram hist;
  counter.inc();
  gauge.add(3);
  hist.record(1);  // must not crash
}

// ------------------------------------------------------------------- spans

TEST(ObsSpan, NestingAutoParentsOnSameThread) {
  obs::Tracer tracer;
  tracer.setEnabled(true);

  {
    obs::Span outer("outer", 0, tracer);
    ASSERT_NE(outer.id(), 0u);
    EXPECT_EQ(obs::currentSpanId(), outer.id());
    {
      obs::Span inner("inner", 0, tracer);
      EXPECT_EQ(obs::currentSpanId(), inner.id());
      obs::Span leaf("leaf", 0, tracer);
      leaf.stop();
      inner.stop();
      // Restored after the nested spans finish.
      EXPECT_EQ(obs::currentSpanId(), outer.id());
    }
  }
  EXPECT_EQ(obs::currentSpanId(), 0u);

  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: outer, inner, leaf.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "leaf");
  EXPECT_EQ(events[0].parent, 0u);
  EXPECT_EQ(events[1].parent, events[0].id);
  EXPECT_EQ(events[2].parent, events[1].id);
  for (const auto& event : events) {
    EXPECT_LE(event.startNs, event.endNs);
  }
}

TEST(ObsSpan, ExplicitParentOverridesThreadLocal) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  obs::Span outer("outer", 0, tracer);
  obs::Span child("child", 42, tracer);
  child.stop();
  outer.stop();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].parent, 42u);  // not outer.id()
}

TEST(ObsSpan, DisabledTracerRecordsNothingButStillTimes) {
  obs::Tracer tracer;
  obs::Span span("phase", 0, tracer);
  EXPECT_EQ(span.id(), 0u);
  EXPECT_GE(span.elapsedSeconds(), 0.0);
  const double seconds = span.stopSeconds();
  EXPECT_GE(seconds, 0.0);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(ObsSpan, StopIsIdempotent) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  obs::Span span("once", 0, tracer);
  span.stop();
  span.stop();
  span.stop();
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(ObsSpan, ClearRestartsEpochAndIds) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  { obs::Span span("a", 0, tracer); }
  ASSERT_EQ(tracer.events().size(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  { obs::Span span("b", 0, tracer); }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].id, 1u);  // id counter restarted
}

// ------------------------------------------------------------- trace writer

TEST(ObsTraceWriter, EmitsWellFormedChromeTraceJson) {
  obs::Tracer tracer;
  tracer.setEnabled(true);
  {
    obs::Span outer("engine.analyze", 0, tracer);
    obs::Span inner("dtmc.build", 0, tracer);
  }
  std::ostringstream out;
  obs::TraceWriter(tracer).write(out);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"dtmc.build\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // Structural sanity a JSON parser would enforce: balanced delimiters,
  // object at top level. (tools/obs/trace_smoke.py does the real
  // parse-back with a JSON library.)
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ObsTraceWriter, EmptyTracerStillValidJson) {
  obs::Tracer tracer;
  std::ostringstream out;
  obs::TraceWriter(tracer).write(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

// ----------------------------------------- determinism: tracing on vs off

TEST(ObsDeterminism, CheckerResultsBitIdenticalTracingOnVsOff) {
  const std::vector<std::string> properties = {
      "P=? [ F<=5 \"one\" ]", "P=? [ F \"one\" ]", "R=? [ I=10 ]",
      "R=? [ S ]",            "P=? [ G<=8 !\"one\" ]",
  };

  const auto runAll = [&] {
    test::MatrixModel model = test::twoStateChain(0.3, 0.4);
    model.withLabel("one", {0, 1}).withRewards({0.0, 1.0});
    const dtmc::BuildResult build = dtmc::buildExplicit(model);
    mc::Checker checker(build.dtmc, model);
    std::vector<double> values;
    values.reserve(properties.size());
    for (const auto& property : properties) {
      values.push_back(checker.check(property).value);
    }
    return values;
  };

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.setEnabled(false);
  const std::vector<double> off = runAll();

  tracer.setEnabled(true);
  tracer.setDetailEnabled(true);  // per-step spans on the traversal path too
  const std::vector<double> on = runAll();
  tracer.setDetailEnabled(false);
  tracer.setEnabled(false);
  tracer.clear();

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    // Byte-identical, not just approximately equal: tracing must never
    // perturb the numeric path.
    EXPECT_EQ(std::memcmp(&off[i], &on[i], sizeof(double)), 0)
        << "property " << properties[i] << ": " << off[i] << " vs " << on[i];
  }
}

TEST(ObsDeterminism, AnalyzeAllValuesBitIdenticalTracingOnVsOff) {
  // The paper studies are engine requests: a 2 x 3 study (chain parameter a
  // x horizon T, one request per point on its own model) answers the same
  // bytes with observability on vs off.
  std::vector<test::MatrixModel> models;
  std::vector<int> horizons;
  for (const double a : {0.25, 0.3}) {
    for (const int T : {3, 13, 23}) {
      models.push_back(test::twoStateChain(a, 0.4));
      models.back().withLabel("one", {0, 1}).withRewards({0.0, 1.0});
      horizons.push_back(T);
    }
  }
  std::vector<engine::AnalysisRequest> requests(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    const std::string t = std::to_string(horizons[i]);
    requests[i].model = &models[i];
    requests[i].properties = {"R=? [ I=" + t + " ]",
                              "P=? [ F<=" + t + " \"one\" ]"};
  }
  const auto runAll = [&] {
    obs::MetricsRegistry registry;  // keep the global registry untouched
    engine::EngineOptions options;
    options.metrics = &registry;
    engine::AnalysisEngine eng(options);
    return eng.analyzeAll(requests);
  };

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.setEnabled(false);
  const auto off = runAll();

  tracer.setEnabled(true);
  tracer.setDetailEnabled(true);
  const auto on = runAll();
  tracer.setDetailEnabled(false);
  tracer.setEnabled(false);
  tracer.clear();

  ASSERT_EQ(off.size(), requests.size());
  ASSERT_EQ(on.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(off[i].ok()) << off[i].error;
    ASSERT_TRUE(on[i].ok()) << on[i].error;
    ASSERT_EQ(off[i].results.size(), on[i].results.size());
    for (std::size_t j = 0; j < off[i].results.size(); ++j) {
      const double a = off[i].results[j].value;
      const double b = on[i].results[j].value;
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << requests[i].properties[j] << ": " << a << " vs " << b;
    }
  }
}

// ------------------------------------------------ where the transpose is built

TEST(ObsTrace, ColdQuotientedRequestNeverTransposesTheFullChain) {
  // Only left products and Prob0/Prob1 read a matrix's transpose, which is
  // built on first use under an "la.transpose" span. A quotiented request
  // runs them on the quotient, so the full chain's transpose is never
  // built; an unreduced one builds it once for all its steps.
  mimo::MimoParams params;
  params.nr = 2;
  params.snrDb = 6.0;
  params.hLevels = 2;
  params.hRange = 1.2;
  params.yLevels = 3;
  params.yRange = 1.8;
  const mimo::MimoDetectorModel model(params);
  const auto transposeSpans = [&](reduce::Toggle quotient,
                                  std::vector<std::string> properties) {
    obs::MetricsRegistry registry;
    engine::EngineOptions options;
    options.metrics = &registry;
    options.threads = 2;
    engine::AnalysisEngine eng(options);
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = std::move(properties);
    request.options.reduction.quotient = quotient;
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    const engine::AnalysisResponse response = eng.analyze(request);
    tracer.setEnabled(false);
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.reduction.applied, quotient == reduce::Toggle::kOn);
    const std::vector<obs::TraceEvent> events = tracer.events();
    tracer.clear();
    return std::count_if(events.begin(), events.end(), [](const auto& e) {
      return std::string_view(e.name) == "la.transpose";
    });
  };
  // Bounded paths take right products only: no transpose at all.
  EXPECT_EQ(transposeSpans(reduce::Toggle::kOn, {"P=? [ F<=6 error ]"}), 0);
  // The transient sweep's left products: the quotient's transpose alone...
  EXPECT_EQ(transposeSpans(reduce::Toggle::kOn,
                           {"R=? [ I=8 ]", "P=? [ F<=6 error ]"}),
            1);
  // ...or, unreduced, the full chain's, once for all eight steps.
  EXPECT_EQ(transposeSpans(reduce::Toggle::kOff,
                           {"R=? [ I=8 ]", "P=? [ F<=6 error ]"}),
            1);
}

// --------------------------------------------- engine latency percentiles

TEST(ObsEngineStats, ReportsRequestLatencyPercentiles) {
  obs::MetricsRegistry registry;
  engine::EngineOptions options;
  options.metrics = &registry;
  options.threads = 2;
  engine::AnalysisEngine eng(options);

  const auto model = test::twoStateChain(0.3, 0.4);
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=5 s=1 ]"};
  constexpr std::uint64_t kRequests = 8;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const auto response = eng.analyze(request);
    ASSERT_TRUE(response.error.empty());
    EXPECT_GT(response.timing.totalSeconds, 0.0);
    EXPECT_GE(response.timing.buildSeconds, 0.0);
    EXPECT_GE(response.timing.checkSeconds, 0.0);
    EXPECT_EQ(response.timing.queueSeconds, 0.0);  // synchronous analyze()
  }

  const engine::EngineStats stats = eng.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_GT(stats.p50RequestSeconds, 0.0);
  // Quantiles are monotone in q by construction.
  EXPECT_LE(stats.p50RequestSeconds, stats.p90RequestSeconds);
  EXPECT_LE(stats.p90RequestSeconds, stats.p99RequestSeconds);
  // The percentile estimate never exceeds the bucket above the observed
  // max; every request latency also landed in the request histogram.
  const obs::HistogramSnapshot latency =
      registry.histogramSnapshot("engine.request_ns");
  EXPECT_EQ(latency.count, kRequests);
  EXPECT_GT(latency.max, 0u);
}

}  // namespace
}  // namespace mimostat
