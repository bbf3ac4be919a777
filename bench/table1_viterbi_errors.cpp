// Table I reproduction: error properties P1/P2/P3 for the Viterbi decoder
// at SNR 5 dB, L=6, T=300.
//
// Paper (on the authors' 3 GHz machine, with their undocumented quantizer
// widths):
//   P1: 53,558,744 -> 8,505,363 states,  90.80 s, 3e-15
//   P2: 53,558,744 -> 8,505,363 states, 184.13 s, 0.2394
//   P3: 107,504,890 -> 16,435,490 states, 365.68 s, ~1
//
// We report our own state counts (documented 2-bit quantizer, pmCap=6).
// The original-model column is obtained by a memory-lean packed-state BFS;
// the properties are checked on the reduced (bisimilar) model, exactly as
// the paper does. The shape to verify: P1 is astronomically small, P2 is a
// few tenths (poor SNR), P3 is ~1, and the reduction shrinks the model by
// a large factor while preserving the values.
//
// Exits 1 when any check below prints FAIL or NO.
#include <cstdio>

#include "core/metrics.hpp"
#include "core/report.hpp"
#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "engine_rows.hpp"
#include "viterbi/fabs.hpp"
#include "viterbi/model_full.hpp"
#include "viterbi/model_reduced.hpp"

int main() {
  using namespace mimostat;

  std::printf("=== Table I: Error properties for a Viterbi decoder ===\n");
  std::printf("SNR=5dB, L=6, T=300 (paper values: P1=3e-15, P2=0.2394, "
              "P3~1)\n\n");

  viterbi::ViterbiParams params;  // paper defaults: L=6, SNR 5 dB

  // Equivalence of the two flag functions (Formality substitute).
  const auto equivalence =
      viterbi::verifyFlagEquivalence(params.tracebackLength);
  std::printf("Eq.5 == Eq.9 equivalence check: %s (%llu assignments)\n",
              equivalence.equivalent ? "PASS" : "FAIL",
              static_cast<unsigned long long>(equivalence.assignmentsChecked));

  // Original-model state counts via packed BFS (no matrix materialised).
  std::printf("\nCounting original model M (packed-state BFS)...\n");
  const viterbi::FullViterbiModel fullP12(params);
  const auto countP12 = dtmc::countReachable(fullP12);

  auto paramsP3 = params;
  paramsP3.withErrorCounter = true;
  const viterbi::FullViterbiModel fullP3(paramsP3);
  const auto countP3 = dtmc::countReachable(fullP3);

  std::printf("  M (P1/P2): %llu states, %llu transitions, RI=%u, %.2fs\n",
              static_cast<unsigned long long>(countP12.numStates),
              static_cast<unsigned long long>(countP12.numTransitions),
              countP12.reachabilityIterations, countP12.buildSeconds);
  std::printf("  M (P3):    %llu states, %llu transitions, RI=%u, %.2fs\n",
              static_cast<unsigned long long>(countP3.numStates),
              static_cast<unsigned long long>(countP3.numTransitions),
              countP3.reachabilityIterations, countP3.buildSeconds);

  // Reduced models + property checking.
  std::printf("\nBuilding reduced model M_R and checking properties...\n");
  engine::AnalysisEngine engine;
  const viterbi::ReducedViterbiModel reducedP12(params);
  const viterbi::ReducedViterbiModel reducedP3(paramsP3);

  // One request per row, so each row's check time is its own.
  const std::uint64_t horizon = 300;
  std::vector<core::GuaranteeReport> rows;
  rows.push_back(bench::checkRows(
      engine, reducedP12,
      {core::metricProperty(core::MetricKind::kBestCase, horizon)})[0]);
  rows.push_back(bench::checkRows(
      engine, reducedP12,
      {core::metricProperty(core::MetricKind::kAverageCase, horizon)})[0]);
  rows.push_back(bench::checkRows(
      engine, reducedP3,
      {core::metricProperty(core::MetricKind::kWorstCase, horizon, 1)})[0]);
  std::printf("\n%s\n", core::formatReportTable(
                            "Table I (reduced model M_R)", rows)
                            .c_str());

  const double factorP12 =
      static_cast<double>(countP12.numStates) / rows[0].states;
  const double factorP3 =
      static_cast<double>(countP3.numStates) / rows[2].states;
  std::printf("Reduction factors: P1/P2 %.1fx, P3 %.1fx\n", factorP12,
              factorP3);
  const bool p1Ok = rows[0].value < 1e-6;
  const bool p2Ok = rows[1].value > 0.05 && rows[1].value < 0.5;
  const bool p3Ok = rows[2].value > 0.99;
  std::printf("Shape check: P1 << 1e-6 (%s), 0.05 < P2 < 0.5 (%s), "
              "P3 > 0.99 (%s)\n",
              p1Ok ? "yes" : "NO", p2Ok ? "yes" : "NO", p3Ok ? "yes" : "NO");
  return equivalence.equivalent && p1Ok && p2Ok && p3Ok ? 0 : 1;
}
