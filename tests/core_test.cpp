#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core_reduction.hpp"
#include "core/report.hpp"
#include "engine/engine.hpp"
#include "stats/estimator.hpp"
#include "stats_extra.hpp"
#include "test_models.hpp"
#include "util/rng.hpp"
#include "viterbi/decoder.hpp"
#include "viterbi/model_reduced.hpp"
#include "viterbi/sim.hpp"

namespace mimostat {
namespace {

TEST(Metrics, PropertyStrings) {
  EXPECT_EQ(core::metricProperty(core::MetricKind::kBestCase, 300),
            "P=? [ G<=300 !flag ]");
  EXPECT_EQ(core::metricProperty(core::MetricKind::kAverageCase, 300),
            "R=? [ I=300 ]");
  EXPECT_EQ(core::metricProperty(core::MetricKind::kWorstCase, 300, 1),
            "P=? [ F<=300 errs>1 ]");
  EXPECT_EQ(core::metricProperty(core::MetricKind::kConvergence, 100),
            "R=? [ I=100 ]");
}

TEST(Analyzer, CrossCheckAgainstSimulation) {
  viterbi::ViterbiParams params;
  params.tracebackLength = 3;
  const viterbi::ReducedViterbiModel model(params);
  engine::AnalysisEngine eng;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=2000 ]"};
  request.options.backend = engine::Backend::kExact;
  const auto response = eng.analyze(request);
  ASSERT_EQ(response.results.size(), 1u) << response.error;
  ASSERT_TRUE(response.results[0].ok()) << response.results[0].error;
  const double modelChecked = response.results[0].value;

  // Simulate the bit-accurate decoder one cycle at a time. The per-cycle
  // error process is Markov-correlated, so an iid interval would be too
  // narrow for a strict containment assertion; batch means give an honest
  // one.
  const viterbi::TrellisKernel kernel(params);
  viterbi::Decoder decoder(kernel);
  util::Xoshiro256 rng(2718);
  std::vector<int> history(static_cast<std::size_t>(params.tracebackLength),
                           0);
  int prevBit = 0;
  stats::BatchMeansEstimator batches(2000);
  for (int t = 0; t < 400000; ++t) {
    const int bit = rng.nextBit() ? 1 : 0;
    const int q = kernel.channel().sample(bit, prevBit, rng);
    const int decoded = decoder.step(q);
    history.insert(history.begin(), bit);
    const int actual =
        history[static_cast<std::size_t>(params.tracebackLength - 1)];
    history.pop_back();
    prevBit = bit;
    batches.add(decoded != actual ? 1.0 : 0.0);
  }
  EXPECT_NEAR(modelChecked, batches.mean(), 0.01);
  const auto interval = batches.interval(0.99);
  EXPECT_TRUE(interval.contains(modelChecked))
      << "model " << modelChecked << " batch-means [" << interval.low << ", "
      << interval.high << "]";
}

TEST(Report, FormatsTable) {
  core::GuaranteeReport row;
  row.property = "P=? [ G<=300 !flag ]";
  row.value = 3e-15;
  row.states = 8505363;
  row.transitions = 123456;
  row.buildSeconds = 1.5;
  row.checkSeconds = 0.5;
  const auto table = core::formatReportTable("Table I", {row});
  EXPECT_NE(table.find("Table I"), std::string::npos);
  EXPECT_NE(table.find("8505363"), std::string::npos);
  EXPECT_NE(table.find("3.000e-15"), std::string::npos);
  EXPECT_NE(table.find("2.00"), std::string::npos);  // total time
}

TEST(Report, LongPropertyKeepsOneLinePerRow) {
  core::GuaranteeReport longRow;
  longRow.property = "P=? [ " + std::string(292, 'x') + " ]";
  ASSERT_EQ(longRow.property.size(), 300u);
  longRow.value = 0.25;
  longRow.states = 42;
  core::GuaranteeReport shortRow;
  shortRow.property = "R=? [ I=10 ]";
  shortRow.value = 1.08e-5;
  const auto table = core::formatReportTable("Table", {longRow, shortRow});

  std::vector<std::string> lines;
  std::istringstream in(table);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u) << table;  // title, header, two rows
  EXPECT_EQ(lines[2].rfind(longRow.property, 0), 0u);
  EXPECT_NE(lines[2].find(" 42 "), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("0.250000"), std::string::npos) << lines[2];
  EXPECT_EQ(lines[3].rfind(shortRow.property, 0), 0u);
  EXPECT_NE(lines[3].find("1.080e-05"), std::string::npos) << lines[3];
  EXPECT_EQ(table.back(), '\n');
}

TEST(Report, FormatValueSwitchesNotation) {
  EXPECT_EQ(core::formatValue(0.25), "0.250000");
  EXPECT_EQ(core::formatValue(1.08e-5), "1.080e-05");
  EXPECT_EQ(core::formatValue(0.0), "0.000000");
}

TEST(Reduction, VerdictDetectsBrokenReduction) {
  // Comparing two unrelated models must fail the property check.
  const auto a = test::twoStateChain(0.3, 0.4);
  auto aReward = test::twoStateChain(0.3, 0.4);
  aReward.withRewards({0.0, 1.0});
  auto b = test::twoStateChain(0.45, 0.1);
  b.withRewards({0.0, 1.0});
  const auto verdict =
      core::verifyReduction(aReward, b, {"R=? [ I=10 ]"}, nullptr, 1e-9);
  EXPECT_FALSE(verdict.propertiesPreserved);
  EXPECT_FALSE(verdict.sound());
}

}  // namespace
}  // namespace mimostat
