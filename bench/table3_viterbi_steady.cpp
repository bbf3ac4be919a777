// Table III reproduction: P2 for the Viterbi decoder as a function of T,
// demonstrating steady state (paper, RI=263):
//   T=100: 0.2373, T=300: 0.2394, T=600: 0.2397, T=1000: 0.2398.
// The shape to verify: the value stabilises for T >> RI, so the
// steady-state P2 can be read off as the BER.
//
// The horizon study is one engine request: one property per T on one
// model, so all horizons ride one 1000-step transient sweep — and the
// numbers are asserted bit-identical to a raw left la::spmm propagation
// per horizon, which has no stationary stop.
// That comparison pins the unreduced path (reduction off); the default
// path, which quotients the decoder for the 1,000-pass plan, is checked
// against the same propagation within the reduction tolerance (1e-9).
//
// `--csv <path>` additionally writes the study as `T,property,value,batched`
// CSV rows, values printed as %.17g (uploaded by CI as a workflow
// artifact). `--trace <path>` enables
// the process tracer and writes the run's span tree as Chrome trace-event
// JSON (load it in Perfetto / chrome://tracing).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "mc/transient.hpp"
#include "obs/trace.hpp"
#include "sweep_reference.hpp"
#include "viterbi/model_reduced.hpp"

int main(int argc, char** argv) {
  using namespace mimostat;

  const char* csvPath = nullptr;
  const char* tracePath = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--csv requires a path argument\n");
        return 2;
      }
      csvPath = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace requires a path argument\n");
        return 2;
      }
      tracePath = argv[++i];
    }
  }
  if (tracePath != nullptr) obs::Tracer::global().setEnabled(true);

  std::printf("=== Table III: P2 for the Viterbi decoder vs T ===\n");
  std::printf("(paper: 0.2373 / 0.2394 / 0.2397 / 0.2398, RI=263)\n\n");

  viterbi::ViterbiParams params;  // L=6, SNR 5 dB
  const viterbi::ReducedViterbiModel model(params);

  // Our documented quantizer widths give a much shorter mixing time than
  // the authors' (steady by T~60 vs their T~300); the small-T rows expose
  // the same transient shape their Table III shows between T=100 and 1000.
  const std::vector<int> horizons{5, 10, 25, 50, 100, 300, 600, 1000};
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
              "points (batched sweep: %.3fs total)\n\n",
              static_cast<unsigned long long>(response.states),
              static_cast<unsigned long long>(response.transitions),
              results.size(), results.back().checkSeconds);

  std::printf("%-8s %-14s %-10s\n", "T", "P2", "batched");
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::printf("%-8d %-14.6g %-10s\n", horizons[i], results[i].value,
                results[i].batched ? "yes" : "no");
  }

  // Bit-identical cross-check against an independent path: fresh build,
  // one raw left la::spmm propagation per T (no stationary stop).
  const auto build = dtmc::buildExplicit(model);
  const double maxDiff = bench::sweepVsHandRolledMaxDiff(
      request.properties, response, build.dtmc, model);
  const bool identical = maxDiff == 0.0;
  std::printf("\nSweep vs hand-rolled loop: max|diff| = %.3g "
              "(bit-identical: %s)\n",
              maxDiff, identical ? "yes" : "NO");

  // Plan-stat guard: the 8 horizons must ride one shared sweep. A silent
  // regression to per-horizon cost would keep the values correct but zero
  // these counters — fail loudly instead.
  const bool planOk = results.size() < 2 || response.plan.traversalsSaved > 0;
  std::printf("Plan stats: tasks=%llu deduped=%llu traversals_saved=%llu "
              "(batching active: %s)\n",
              static_cast<unsigned long long>(response.plan.tasksPlanned),
              static_cast<unsigned long long>(response.plan.tasksDeduped),
              static_cast<unsigned long long>(response.plan.traversalsSaved),
              planOk ? "yes" : "NO");

  const bool reducedOk =
      bench::defaultPathWithinTolerance(engine, request, build.dtmc, model);

  const auto built = engine.ensureBuilt(model);
  const auto reward = built->dtmc.evalReward(model, "");
  const auto detection =
      mc::detectRewardSteadyState(built->dtmc, reward, 1e-10, 16, 5000);
  std::printf("Steady state detected at T=%llu (P2 -> %.6g): %s\n",
              static_cast<unsigned long long>(detection.step),
              detection.value, detection.converged ? "yes" : "NO");
  const double drift = results.back().value - results[5].value;
  std::printf("Shape check: |P2(1000) - P2(300)| = %.2e (< 1e-2: %s)\n",
              drift < 0 ? -drift : drift,
              (drift < 1e-2 && drift > -1e-2) ? "yes" : "NO");

  if (csvPath != nullptr) {
    std::ofstream out(csvPath);
    out << "T,property,value,batched\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      char value[32];
      std::snprintf(value, sizeof(value), "%.17g", results[i].value);
      out << horizons[i] << ',' << request.properties[i] << ',' << value
          << ',' << (results[i].batched ? "true" : "false") << '\n';
    }
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "failed to write sweep CSV to %s\n", csvPath);
      return 3;
    }
    std::printf("\nSweep CSV written to %s (%zu rows)\n", csvPath,
                results.size());
  }
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
