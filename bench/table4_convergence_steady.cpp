// Table IV reproduction: the convergence property C1 for the Viterbi
// decoder (L=8, SNR 8 dB) as a function of T (paper, RI=77):
//   T=100: 1.034e-3, T=400: ~1.04e-3, T=1000: 1.044e-3
// plus the paper's claim that C1 is checkable within ~120 s on a model of
// only ~61,000 states thanks to the projection onto (pm0, pm1, x0, count).
//
// The horizon study is one engine request: the three horizons on one
// model ride one transient sweep, asserted bit-identical to a raw left
// la::spmm propagation per horizon. That comparison pins the unreduced path
// (reduction off); the default path, which quotients the model for the
// 1,000-pass plan, is checked against the same propagation within 1e-9.
//
// `--trace <path>` enables the process tracer and writes the run's span
// tree as Chrome trace-event JSON (Perfetto / chrome://tracing).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "mc/steady.hpp"
#include "obs/trace.hpp"
#include "sweep_reference.hpp"
#include "viterbi/model_convergence.hpp"
#include "viterbi/sim.hpp"

int main(int argc, char** argv) {
  using namespace mimostat;

  const char* tracePath = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace requires a path argument\n");
        return 2;
      }
      tracePath = argv[++i];
    }
  }
  if (tracePath != nullptr) obs::Tracer::global().setEnabled(true);

  std::printf("=== Table IV: Convergence of the Viterbi decoder (C1) ===\n");
  std::printf("(paper: ~1.03e-3..1.04e-3 across T, RI=77, L=8, SNR 8dB)\n\n");

  viterbi::ViterbiParams params;
  params.tracebackLength = 8;
  params.snrDb = 8.0;
  const viterbi::ConvergenceViterbiModel model(params, /*maxCount=*/12);

  const std::vector<int> horizons{100, 400, 1000};
  engine::AnalysisRequest request;
  request.model = &model;
  for (const int T : horizons) {
    request.properties.push_back("R=? [ I=" + std::to_string(T) + " ]");
  }
  request.options.reduction.quotient = reduce::Toggle::kOff;

  engine::AnalysisEngine engine;
  const engine::AnalysisResponse response = engine.analyze(request);
  const auto& results = response.results;

  std::printf("Model: %llu states, %llu transitions, built once for %zu "
              "points\n\n",
              static_cast<unsigned long long>(response.states),
              static_cast<unsigned long long>(response.transitions),
              results.size());

  std::printf("%-8s %-14s %-10s\n", "T", "C1", "batched");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%-8d %-14.6g %-10s\n", horizons[i], results[i].value,
                results[i].batched ? "yes" : "no");
  }

  // KNOWN GAP: our C1 magnitude (~2.1e-4) sits below the paper's ~1.0e-3.
  // The authors' quantizer wordlengths are not fully specified; ours (see
  // comm/quantizer.cpp) quantize the path metrics more finely, which makes
  // metric ties — the non-convergence trigger — rarer. The reproduced claim
  // is the *shape*: C1 is flat in T (steady state) on a ~61k-state
  // projection. Not a sweep bug; see README "Reproducing the paper".
  std::printf("\nNOTE: C1 magnitude here is ~2.1e-4 vs the paper's ~1.0e-3 "
              "(quantizer-width provenance; see README).\n");

  // Bit-identical cross-check against an independent path: fresh build,
  // one raw left la::spmm propagation per horizon (no stationary stop).
  const auto build = dtmc::buildExplicit(model);
  const double maxDiff = bench::sweepVsHandRolledMaxDiff(
      request.properties, response, build.dtmc, model);
  const bool identical = maxDiff == 0.0;
  std::printf("Sweep vs hand-rolled loop: max|diff| = %.3g "
              "(bit-identical: %s)\n",
              maxDiff, identical ? "yes" : "NO");
  const bool reducedOk =
      bench::defaultPathWithinTolerance(engine, request, build.dtmc, model);

  // Plan-stat guard: the 3 horizons share one transient sweep;
  // traversals_saved == 0 would mean batching silently reverted to
  // per-formula cost — fail loudly.
  const bool planOk = results.size() < 2 || response.plan.traversalsSaved > 0;
  std::printf("Plan stats: tasks=%llu deduped=%llu traversals_saved=%llu "
              "(batching active: %s)\n",
              static_cast<unsigned long long>(response.plan.tasksPlanned),
              static_cast<unsigned long long>(response.plan.tasksDeduped),
              static_cast<unsigned long long>(response.plan.traversalsSaved),
              planOk ? "yes" : "NO");

  const auto built = engine.ensureBuilt(model);
  const auto structure = mc::analyzeStructure(built->dtmc);
  std::printf("\nChain structure: %u SCCs, %u recurrent class(es) — unique "
              "recurrent class, steady state guaranteed: %s\n",
              structure.numSccs, structure.numBottomSccs,
              structure.numBottomSccs == 1 ? "yes" : "NO");

  // Cross-check against the bit-accurate decoder simulation.
  const auto sim = viterbi::simulate(params, 2'000'000, 7);
  const auto interval = sim.nonConvergent.wilson(0.99);
  std::printf("Simulation cross-check (2e6 steps): C1_sim=%.3e "
              "[%.3e, %.3e], model inside: %s\n",
              sim.nonConvergent.estimate(), interval.low, interval.high,
              interval.contains(results.back().value) ? "yes" : "NO");
  if (tracePath != nullptr) {
    if (!obs::TraceWriter(obs::Tracer::global()).writeFile(tracePath)) {
      std::fprintf(stderr, "failed to write trace JSON to %s\n", tracePath);
      return 3;
    }
    std::printf("Trace JSON written to %s (%zu spans)\n", tracePath,
                obs::Tracer::global().events().size());
  }
  return identical && planOk && reducedOk && response.ok() ? 0 : 1;
}
