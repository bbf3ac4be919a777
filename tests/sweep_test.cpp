#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "mc/checker.hpp"
#include "obs/metrics.hpp"
#include "sweep/param_space.hpp"
#include "sweep/result_table.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "test_models.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

/// Engine options with the two knobs these tests vary set by name.
engine::EngineOptions engineOptions(std::size_t threads,
                                    std::size_t maxCachedModels) {
  engine::EngineOptions options;
  options.threads = threads;
  options.maxCachedModels = maxCachedModels;
  return options;
}

using sweep::Axis;
using sweep::ParamSpace;
using sweep::Params;

std::int64_t asInt(const sweep::ParamValue& v) {
  return std::get<std::int64_t>(v);
}

// ------------------------------------------------------------- ParamSpace

TEST(ParamSpace, CartesianEnumeratesInNestedLoopOrder) {
  ParamSpace space;
  space.cross(Axis::ints("a", 0, 1)).cross(Axis::ints("b", 10, 30, 10));
  const auto points = space.points();
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(space.gridSize(), 6u);
  // Last-declared axis varies fastest.
  const std::vector<std::pair<std::int64_t, std::int64_t>> expected{
      {0, 10}, {0, 20}, {0, 30}, {1, 10}, {1, 20}, {1, 30}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].getInt("a"), expected[i].first) << i;
    EXPECT_EQ(points[i].getInt("b"), expected[i].second) << i;
  }
  EXPECT_EQ(space.axisNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(ParamSpace, ZipAdvancesAxesTogether) {
  ParamSpace space;
  space.cross(Axis::ints("run", 1, 2));
  space.zip({Axis::ints("L", 2, 4), Axis::doubles("snr", {1.0, 2.0, 3.0})});
  const auto points = space.points();
  ASSERT_EQ(points.size(), 6u);  // 2 runs x 3 zipped pairs, not 2 x 3 x 3
  EXPECT_EQ(points[0].getInt("L"), 2);
  EXPECT_EQ(points[0].getDouble("snr"), 1.0);
  EXPECT_EQ(points[2].getInt("L"), 4);
  EXPECT_EQ(points[2].getDouble("snr"), 3.0);
  EXPECT_EQ(points[3].getInt("run"), 2);
  EXPECT_EQ(points[3].getInt("L"), 2);
}

TEST(ParamSpace, ZipRejectsLengthMismatchAndDuplicates) {
  ParamSpace space;
  EXPECT_THROW(
      space.zip({Axis::ints("x", 0, 1), Axis::ints("y", 0, 2)}),
      std::invalid_argument);
  space.cross(Axis::ints("x", 0, 1));
  EXPECT_THROW(space.cross(Axis::ints("x", 5, 6)), std::invalid_argument);
}

TEST(ParamSpace, FilterDropsPoints) {
  ParamSpace space;
  space.cross(Axis::ints("a", 0, 3))
      .filter([](const Params& p) { return p.getInt("a") % 2 == 0; });
  const auto points = space.points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].getInt("a"), 0);
  EXPECT_EQ(points[1].getInt("a"), 2);
  EXPECT_EQ(space.gridSize(), 4u);  // pre-filter grid
}

TEST(ParamSpace, LogspaceHitsEndpoints) {
  const Axis axis = Axis::logspace("snr", 1.0, 100.0, 5);
  ASSERT_EQ(axis.size(), 5u);
  EXPECT_DOUBLE_EQ(std::get<double>(axis.value(0)), 1.0);
  EXPECT_NEAR(std::get<double>(axis.value(2)), 10.0, 1e-12);
  EXPECT_NEAR(std::get<double>(axis.value(4)), 100.0, 1e-12);
  EXPECT_THROW(Axis::logspace("bad", 0.0, 10.0, 3), std::invalid_argument);
}

TEST(ParamSpace, ParamsTypedAccessors) {
  ParamSpace space;
  space.cross(Axis::ints("n", 5, 5))
      .cross(Axis::strings("design", {"viterbi"}));
  const auto points = space.points();
  ASSERT_EQ(points.size(), 1u);
  const Params& p = points[0];
  EXPECT_TRUE(p.has("n"));
  EXPECT_FALSE(p.has("missing"));
  EXPECT_EQ(p.getInt("n"), 5);
  EXPECT_EQ(p.getDouble("n"), 5.0);  // int widens
  EXPECT_EQ(p.getString("design"), "viterbi");
  EXPECT_THROW((void)p.getInt("missing"), std::out_of_range);
  EXPECT_EQ(p.format(), "n=5, design=viterbi");
}

// ----------------------------------------------------------------- Runner

/// A sweep over chain parameter `a` and horizon `T`, fresh model per point.
sweep::SweepSpec crossChainSpec() {
  sweep::SweepSpec spec("cross_chain");
  spec.space.cross(Axis::doubles("a", {0.25, 0.3}))
      .cross(Axis::ints("T", 3, 23, 10));
  spec.factory = [](const Params& p) {
    auto model = std::make_shared<test::MatrixModel>(
        test::twoStateChain(p.getDouble("a"), 0.4));
    model->withRewards({0.0, 1.0});
    return model;
  };
  spec.properties = [](const Params& p) {
    const std::string t = std::to_string(p.getInt("T"));
    return std::vector<std::string>{"R=? [ I=" + t + " ]",
                                    "R=? [ C<=" + t + " ]"};
  };
  return spec;
}

TEST(SweepRunner, MatchesPerCallEngineRequestsBitForBit) {
  // Acceptance criterion: a sweep over a small grid is byte-identical to
  // issuing one engine request per (point, property) by hand.
  const auto spec = crossChainSpec();
  engine::AnalysisEngine eng;
  const sweep::Runner runner(eng);
  const auto table = runner.run(spec);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.size(), 2u * 3u * 2u);

  engine::AnalysisEngine reference;
  const auto points = spec.space.points();
  std::size_t rowIdx = 0;
  for (const auto& point : points) {
    const auto model = spec.factory(point);
    for (const auto& property : spec.properties(point)) {
      engine::AnalysisRequest request;
      request.model = model.get();
      request.properties = {property};
      request.options = spec.options;
      const auto response = reference.analyze(request);
      ASSERT_TRUE(response.ok());
      const auto& row = table.rows()[rowIdx++];
      EXPECT_EQ(row.property, property);
      EXPECT_EQ(row.value, response.results[0].value) << property;
      EXPECT_EQ(row.satisfied, response.results[0].satisfied);
      EXPECT_EQ(row.states, response.states);
    }
  }

  // ... and to the fully hand-rolled checker loop.
  rowIdx = 0;
  for (const auto& point : points) {
    const auto model = spec.factory(point);
    const auto build = dtmc::buildExplicit(*model);
    const mc::Checker checker(build.dtmc, *model);
    for (const auto& property : spec.properties(point)) {
      EXPECT_EQ(table.rows()[rowIdx++].value, checker.check(property).value)
          << property;
    }
  }
}

TEST(SweepRunner, DeterministicBytesAcrossThreadCounts) {
  // Acceptance criterion: same bytes at 1, 2 and 8 runner threads.
  std::vector<std::string> csv;
  std::vector<std::string> json;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::AnalysisEngine eng(engineOptions(threads, 8));
    const sweep::Runner runner(eng);
    const auto table = runner.run(crossChainSpec());
    ASSERT_TRUE(table.ok());
    csv.push_back(table.toCsv());
    json.push_back(table.toJson());
  }
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_EQ(csv[0], csv[2]);
  EXPECT_EQ(json[0], json[1]);
  EXPECT_EQ(json[0], json[2]);
}

TEST(SweepRunner, SamplingSweepDeterministicAcrossThreadCounts) {
  sweep::SweepSpec spec("sampled");
  spec.space.cross(Axis::ints("T", 4, 8, 2));
  spec.factory = [](const Params&) {
    auto model = std::make_shared<test::MatrixModel>(
        test::twoStateChain(0.3, 0.4));
    model->withLabel("one", {0, 1}).withRewards({0.0, 1.0});
    return model;
  };
  spec.properties = [](const Params& p) {
    const std::string t = std::to_string(p.getInt("T"));
    return std::vector<std::string>{"P=? [ F<=" + t + " \"one\" ]",
                                    "R=? [ C<=" + t + " ]"};
  };
  spec.options.backend = engine::Backend::kSampling;
  spec.options.smc.paths = 3000;
  spec.options.smc.seed = 41;
  spec.options.smc.chunkPaths = 256;

  std::vector<std::string> csv;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::AnalysisEngine eng(engineOptions(threads, 8));
    const sweep::Runner runner(eng);
    const auto table = runner.run(spec);
    ASSERT_TRUE(table.ok());
    EXPECT_GT(table.rows()[0].samples, 0u);
    EXPECT_TRUE(table.rows()[0].interval95.has_value());
    csv.push_back(table.toCsv());
  }
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_EQ(csv[0], csv[2]);
}

TEST(SweepRunner, SharedModelCoalescesIntoOneBatchedRequest) {
  const auto model = std::make_shared<test::MatrixModel>(
      test::twoStateChain(0.3, 0.4));
  model->withRewards({0.0, 1.0});

  sweep::SweepSpec spec("shared");
  spec.space.cross(Axis::ints("T", 5, 45, 10));
  spec.share(model);
  spec.properties = [](const Params& p) {
    return std::vector<std::string>{
        "R=? [ I=" + std::to_string(p.getInt("T")) + " ]"};
  };

  engine::AnalysisEngine eng;
  const sweep::Runner runner(eng);
  const auto table = runner.run(spec);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(eng.stats().builds, 1u);
  for (const auto& row : table.rows()) {
    EXPECT_TRUE(row.batched) << "horizons of a shared model share one sweep";
    // The serving request's plan counters ride into every row: horizons
    // 5..45 share one sweep of 45 steps (5+15+25+35 = 80 steps saved).
    EXPECT_EQ(row.plan.traversalsSaved, 80u);
    EXPECT_GT(row.plan.tasksPlanned, 0u);
  }

  // One engine request per point gives identical values (still one build,
  // through the model cache).
  engine::AnalysisEngine perPoint;
  for (std::size_t i = 0; i < table.size(); ++i) {
    engine::AnalysisRequest request;
    request.model = model.get();
    request.properties = {table.rows()[i].property};
    const auto response = perPoint.analyze(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(table.rows()[i].value, response.results[0].value);
  }
  EXPECT_EQ(perPoint.stats().builds, 1u);
}

TEST(SweepRunner, StructurallyEqualModelsShareOneBuild) {
  // Distinct model objects per point: no coalescing, but the engine's
  // signature-keyed cache still builds the DTMC once.
  auto spec = crossChainSpec();
  spec.space = ParamSpace();
  spec.space.cross(Axis::ints("T", 3, 43, 10));  // one `a`, five horizons
  spec.properties = [](const Params& p) {
    return std::vector<std::string>{
        "R=? [ I=" + std::to_string(p.getInt("T")) + " ]"};
  };
  spec.factory = [](const Params&) {
    auto model = std::make_shared<test::MatrixModel>(
        test::twoStateChain(0.25, 0.4));
    model->withRewards({0.0, 1.0});
    return model;
  };
  engine::AnalysisEngine eng;
  const sweep::Runner runner(eng);
  const auto table = runner.run(spec);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(eng.stats().builds, 1u);
  EXPECT_EQ(eng.stats().cacheHits, 4u);
}

TEST(SweepRunner, EqualFingerprintsCoalesceIntoOneRequest) {
  // A fresh model object per point, all with the same parameters: equal
  // fingerprints make them one request, so the horizons share one sweep.
  sweep::SweepSpec spec("fingerprints");
  spec.space.cross(Axis::ints("T", 10, 50, 10));
  spec.properties = [](const Params& p) {
    return std::vector<std::string>{
        "R=? [ I=" + std::to_string(p.getInt("T")) + " ]"};
  };
  spec.factory = [](const Params&) {
    viterbi::ViterbiParams params;
    params.tracebackLength = 3;
    return std::make_shared<viterbi::ReducedViterbiModel>(params);
  };
  obs::MetricsRegistry metrics;
  engine::EngineOptions options;
  options.metrics = &metrics;
  engine::AnalysisEngine eng(options);
  const sweep::Runner runner(eng);
  const auto table = runner.run(spec);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(eng.stats().requests, 1u);
  EXPECT_EQ(eng.stats().builds, 1u);
  for (const auto& row : table.rows()) {
    EXPECT_TRUE(row.batched);
    EXPECT_GT(row.plan.traversalsSaved, 0u);
  }
}

TEST(SweepRunner, FactoryFailureIsIsolatedPerPoint) {
  sweep::SweepSpec spec("faulty");
  spec.space.cross(Axis::ints("n", 1, 4));
  spec.factory = [](const Params& p) -> std::shared_ptr<const dtmc::Model> {
    if (p.getInt("n") == 2) throw std::runtime_error("factory boom");
    if (p.getInt("n") == 4) return nullptr;
    auto model = std::make_shared<test::MatrixModel>(
        test::twoStateChain(0.3, 0.4));
    model->withRewards({0.0, 1.0});
    return model;
  };
  spec.withProperties({"R=? [ I=5 ]"});

  engine::AnalysisEngine eng;
  const sweep::Runner runner(eng);
  const auto table = runner.run(spec);
  ASSERT_EQ(table.size(), 4u);
  EXPECT_EQ(table.errorCount(), 2u);
  EXPECT_TRUE(table.rows()[0].ok());
  EXPECT_EQ(table.rows()[1].error, "factory boom");
  // A failed row never exports as a passing zero.
  EXPECT_TRUE(std::isnan(table.rows()[1].value));
  EXPECT_FALSE(table.rows()[1].satisfied);
  EXPECT_TRUE(table.rows()[2].ok());
  EXPECT_EQ(table.rows()[0].value, table.rows()[2].value);
  EXPECT_EQ(table.rows()[3].error, "model factory returned null");
  EXPECT_TRUE(std::isnan(table.rows()[3].value));
}

TEST(SweepRunner, EmptyPropertyListSkipsPointWithoutBuilding) {
  sweep::SweepSpec spec("skips");
  spec.space.cross(Axis::ints("n", 1, 3));
  spec.factory = [](const Params& p) -> std::shared_ptr<const dtmc::Model> {
    // The skipped point gets a structurally distinct model: if the runner
    // wrongly issued a request for it, stats().builds would reach 2.
    if (p.getInt("n") == 2) {
      return std::make_shared<test::MatrixModel>(
          test::gamblersRuin(10, 0.5, 5));
    }
    auto model = std::make_shared<test::MatrixModel>(
        test::twoStateChain(0.3, 0.4));
    model->withRewards({0.0, 1.0});
    return model;
  };
  spec.properties = [](const Params& p) {
    if (p.getInt("n") == 2) return std::vector<std::string>{};
    return std::vector<std::string>{"R=? [ I=5 ]"};
  };

  engine::AnalysisEngine eng;
  const sweep::Runner runner(eng);
  const auto table = runner.run(spec);
  ASSERT_EQ(table.size(), 2u);  // the empty point contributes no rows
  EXPECT_TRUE(table.ok());
  EXPECT_EQ(asInt(table.rows()[0].params[0]), 1);
  EXPECT_EQ(asInt(table.rows()[1].params[0]), 3);
  EXPECT_EQ(eng.stats().builds, 1u);  // the skipped point was never built

  // Every point skipped: no requests at all, an empty table (regression
  // test — this used to index an empty responses vector).
  spec.properties = [](const Params&) { return std::vector<std::string>{}; };
  const auto empty = runner.run(spec);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.ok());
}

TEST(SweepRunner, PropertyErrorIsIsolatedPerRow) {
  const auto model = std::make_shared<test::MatrixModel>(
      test::twoStateChain(0.3, 0.4));
  model->withRewards({0.0, 1.0});
  sweep::SweepSpec spec("parse_error");
  spec.space.cross(Axis::ints("n", 1, 2));
  spec.share(model);
  spec.properties = [](const Params& p) {
    if (p.getInt("n") == 1) {
      return std::vector<std::string>{"R=? [ I=5 ]", "not pctl"};
    }
    return std::vector<std::string>{"R=? [ I=5 ]"};
  };

  engine::AnalysisEngine eng;
  const sweep::Runner runner(eng);
  const auto table = runner.run(spec);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_TRUE(table.rows()[0].ok());
  EXPECT_FALSE(table.rows()[1].ok());
  EXPECT_TRUE(table.rows()[2].ok());
  EXPECT_EQ(table.rows()[0].value, table.rows()[2].value);
}

TEST(SweepRunner, SpecWithoutFactoryThrows) {
  sweep::SweepSpec spec("incomplete");
  spec.space.cross(Axis::ints("n", 1, 2));
  engine::AnalysisEngine eng;
  const sweep::Runner runner(eng);
  EXPECT_THROW((void)runner.run(spec), std::invalid_argument);
  spec.factory = [](const Params&) {
    return std::make_shared<test::MatrixModel>(test::twoStateChain(0.3, 0.4));
  };
  EXPECT_THROW((void)runner.run(spec), std::invalid_argument);
}

// ------------------------------------------------------------ ResultTable

sweep::ResultTable gridTable() {
  std::vector<sweep::ResultRow> rows;
  for (std::int64_t a = 0; a < 2; ++a) {
    for (std::int64_t b = 0; b < 3; ++b) {
      sweep::ResultRow row;
      row.point = rows.size();
      row.params = {sweep::ParamValue{a}, sweep::ParamValue{b}};
      row.property = "R=? [ I=5 ]";
      row.value = static_cast<double>(10 * a + b);
      rows.push_back(row);
    }
  }
  return sweep::ResultTable("grid", {"a", "b"}, std::move(rows));
}

TEST(ResultTable, PivotReshapesLongFormat) {
  const auto table = gridTable();
  const auto pivot = table.pivot("a", "b");
  ASSERT_EQ(pivot.rowKeys.size(), 2u);
  ASSERT_EQ(pivot.colKeys.size(), 3u);
  EXPECT_EQ(asInt(pivot.rowKeys[0]), 0);
  EXPECT_EQ(asInt(pivot.colKeys[2]), 2);
  EXPECT_EQ(pivot.values[0][0], 0.0);
  EXPECT_EQ(pivot.values[1][2], 12.0);
  const std::string formatted = pivot.format("grid");
  EXPECT_NE(formatted.find("a \\ b"), std::string::npos);
  EXPECT_NE(formatted.find("12.0"), std::string::npos);

  EXPECT_THROW((void)table.pivot("a", "nope"), std::invalid_argument);
  // Collapsing b onto itself maps several rows to one cell: ambiguous.
  EXPECT_THROW((void)table.pivot("b", "b"), std::invalid_argument);
}

TEST(ResultTable, CsvEscapesAndRoundTrips) {
  std::vector<sweep::ResultRow> rows(1);
  rows[0].params = {sweep::ParamValue{std::string("a,\"b\"")}};
  rows[0].property = "P=? [ F<=5 \"one\" ]";
  rows[0].value = 0.125;
  rows[0].error = "line1\nline2";
  const sweep::ResultTable table("esc", {"design"}, std::move(rows));
  const std::string csv = table.toCsv();
  EXPECT_NE(csv.find("\"a,\"\"b\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("\"line1\nline2\""), std::string::npos);
  // Default export: no run-dependent diagnostic columns.
  EXPECT_EQ(csv.find("cache_hit"), std::string::npos);
  EXPECT_EQ(csv.find("check_seconds"), std::string::npos);
  sweep::ExportOptions diag;
  diag.diagnostics = true;
  EXPECT_NE(table.toCsv(diag).find("check_seconds"), std::string::npos);
}

TEST(ResultTable, JsonEscapesStrings) {
  std::vector<sweep::ResultRow> rows(1);
  rows[0].params = {sweep::ParamValue{std::int64_t{7}}};
  rows[0].property = "P=? [ F<=5 \"one\" ]";
  rows[0].value = 0.5;
  const sweep::ResultTable table("json", {"T"}, std::move(rows));
  const std::string json = table.toJson();
  EXPECT_NE(json.find("\"sweep\":\"json\""), std::string::npos);
  EXPECT_NE(json.find("P=? [ F<=5 \\\"one\\\" ]"), std::string::npos);
  EXPECT_NE(json.find("\"params\":{\"T\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"interval95\":null"), std::string::npos);
}

TEST(ResultTable, GuaranteeReportsFeedCoreReport) {
  const auto table = gridTable();
  const auto reports = table.guaranteeReports();
  ASSERT_EQ(reports.size(), table.size());
  EXPECT_EQ(reports[4].property, "a=1 b=1 R=? [ I=5 ]");
  EXPECT_EQ(reports[4].value, 11.0);
  const std::string formatted =
      core::formatReportTable("Sweep results", reports);
  EXPECT_NE(formatted.find("a=1 b=1 R=? [ I=5 ]"), std::string::npos);
}

// ------------------------------------------- solver diagnostic columns

TEST(ResultTable, DiagnosticsIncludeSolverColumns) {
  const auto model = std::make_shared<test::MatrixModel>(
      test::gamblersRuin(10, 0.5, 4));
  sweep::SweepSpec spec("diag");
  spec.space.cross(Axis::ints("run", 1, 1));
  spec.share(model);
  spec.withProperties({"P=? [ F s=10 ]", "R=? [ I=3 ]"});

  engine::AnalysisEngine eng;
  const sweep::Runner runner(eng);
  const auto table = runner.run(spec);
  ASSERT_TRUE(table.ok());

  const std::string plain = table.toCsv();
  EXPECT_EQ(plain.find("solver_iterations"), std::string::npos);

  sweep::ExportOptions diagnostics;
  diagnostics.diagnostics = true;
  const std::string csv = table.toCsv(diagnostics);
  // Diagnostic columns are emitted sorted by name (stable header as
  // counters are added), so the solver group sits in alphabetical order.
  EXPECT_NE(csv.find(",simd,solver,solver_converged,solver_iterations,"
                     "solver_residual,spmm_panels,"),
            std::string::npos);
  EXPECT_NE(csv.find(",gauss-seidel,"), std::string::npos);

  const std::string json = table.toJson(diagnostics);
  EXPECT_NE(json.find("\"solver\":{\"name\":\"gauss-seidel\""),
            std::string::npos);
  EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
  // The transient row carries no solver report.
  EXPECT_NE(json.find("\"solver\":null"), std::string::npos);
  // SIMD/panel counters ride the same diagnostics opt-in.
  EXPECT_NE(json.find("\"simd\":\""), std::string::npos);
  EXPECT_NE(json.find("\"spmmPanels\":"), std::string::npos);
  EXPECT_EQ(plain.find("spmm_panels"), std::string::npos);
}

TEST(ResultTable, DiagnosticColumnsSortedByName) {
  std::vector<sweep::ResultRow> rows(1);
  rows[0].params = {sweep::ParamValue{std::int64_t{1}}};
  rows[0].property = "R=? [ I=3 ]";
  rows[0].value = 1.0;
  const sweep::ResultTable table("sorted", {"T"}, std::move(rows));
  sweep::ExportOptions diagnostics;
  diagnostics.diagnostics = true;
  const std::string csv = table.toCsv(diagnostics);
  const std::string header = csv.substr(0, csv.find('\n'));
  // Everything after the fixed "error" column is the diagnostic block.
  const std::size_t start = header.find(",error,");
  ASSERT_NE(start, std::string::npos);
  std::vector<std::string> columns;
  std::string rest = header.substr(start + 7);
  for (std::size_t pos = 0; pos != std::string::npos;) {
    const std::size_t comma = rest.find(',', pos);
    columns.push_back(rest.substr(pos, comma - pos));
    pos = comma == std::string::npos ? comma : comma + 1;
  }
  ASSERT_GE(columns.size(), 2u);
  EXPECT_TRUE(std::is_sorted(columns.begin(), columns.end()))
      << header;
  EXPECT_NE(std::find(columns.begin(), columns.end(), "simd"),
            columns.end());
  EXPECT_NE(std::find(columns.begin(), columns.end(), "spmm_panels"),
            columns.end());
}

}  // namespace
}  // namespace mimostat
