// Figure 2 reproduction: C1 (probability of non-converging traceback
// paths) as a function of the traceback length L. The paper's claims:
// C1 decreases with L and stabilises past L = 5m (m=1 here), empirically
// justifying the folklore L = 4m..5m traceback-depth rule.
//
// The L study is one engine request: one deep-counter model whose "nc<k>"
// reward structures answer every L, one property per L, all answered by a
// single transient pass to the common horizon — asserted bit-identical to
// a raw left la::spmm propagation per L. That comparison pins the
// unreduced path (reduction off); the default path, which quotients the
// model for the 400-pass plan, is checked against the same propagation
// within 1e-9.
#include <cstdio>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "sweep_reference.hpp"
#include "viterbi/model_convergence.hpp"

int main() {
  using namespace mimostat;

  std::printf("=== Figure 2: C1 as a function of L ===\n");
  std::printf("(paper: decreasing, stabilising past L=5m; SNR 8dB)\n\n");

  viterbi::ViterbiParams params;
  params.snrDb = 8.0;
  params.tracebackLength = 8;  // default reward's L; nc<k> covers the sweep
  const int maxL = 14;
  const viterbi::ConvergenceViterbiModel model(params, maxL + 2);

  engine::AnalysisRequest request;
  request.model = &model;
  for (int L = 2; L <= maxL; ++L) {
    request.properties.push_back("R{\"nc" + std::to_string(L) +
                                 "\"}=? [ I=400 ]");
  }
  request.options.reduction.quotient = reduce::Toggle::kOff;

  engine::AnalysisEngine engine;
  const engine::AnalysisResponse response = engine.analyze(request);
  const auto& results = response.results;

  std::printf("Model: %llu states, built once for %zu points (one batched "
              "sweep: %s)\n\n",
              static_cast<unsigned long long>(response.states),
              results.size(), results.front().batched ? "yes" : "no");
  std::printf("%-6s %-14s %-14s\n", "L", "C1", "C1(L)/C1(L+1)");

  std::vector<double> series;
  series.reserve(results.size());
  for (const auto& result : results) series.push_back(result.value);
  for (int L = 2; L <= maxL; ++L) {
    const double c1 = series[static_cast<std::size_t>(L - 2)];
    const double ratio = (L < maxL && series[static_cast<std::size_t>(L - 1)] > 0)
                             ? c1 / series[static_cast<std::size_t>(L - 1)]
                             : 0.0;
    std::printf("%-6d %-14.6e %-14.3f\n", L, c1, ratio);
  }

  // Bit-identical cross-check against an independent path: fresh build,
  // one raw left la::spmm propagation per L (no stationary stop).
  const auto build = dtmc::buildExplicit(model);
  const double maxDiff = bench::sweepVsHandRolledMaxDiff(
      request.properties, response, build.dtmc, model);
  const bool identical = maxDiff == 0.0;
  std::printf("\nSweep vs hand-rolled loop: max|diff| = %.3g "
              "(bit-identical: %s)\n",
              maxDiff, identical ? "yes" : "NO");
  const bool reducedOk =
      bench::defaultPathWithinTolerance(engine, request, build.dtmc, model);

  bool monotone = true;
  for (std::size_t i = 1; i < series.size(); ++i) {
    if (series[i] > series[i - 1] + 1e-15) monotone = false;
  }
  std::printf("Shape check: monotone decreasing in L: %s\n",
              monotone ? "yes" : "NO");
  // "Stabilises" in the paper's sense: the *decision* cost of raising L past
  // 5m is marginal because C1 is already tiny (geometric decay).
  const double atFiveM = series[3];  // L=5 (m=1)
  std::printf("C1 at L=5m is already %.2e (< 1e-2: %s)\n", atFiveM,
              atFiveM < 1e-2 ? "yes" : "NO");
  return identical && reducedOk && response.ok() ? 0 : 1;
}
