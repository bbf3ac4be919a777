// Batched horizon sweeps vs per-call checking.
//
// The paper's Tables III/IV sweep R=?[I=T] over many horizons of one model;
// Figure 2 sweeps fifteen nc<L> rewards at one horizon. Per-call checking
// re-propagates the distribution from pi_0 for every property (sum of all
// horizons matrix-vector passes); the engine's batcher advances ONE sweep to
// the maximum horizon. Expected speedups: sum(T)/max(T) for a horizon sweep
// (~5.5x for T=100..1000) and #rewards for a reward-family sweep (~15x).
//
// The batched request pins reduction off: its contract is bit-for-bit
// equality with per-call checking on the unreduced model. The default path
// quotients these long plans; its row reports the drift from per-call,
// bounded by the reduction tolerance (1e-9).
#include <cstdio>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "mc/checker.hpp"
#include "util/timer.hpp"
#include "viterbi/model_convergence.hpp"
#include "viterbi/model_reduced.hpp"

namespace {

using namespace mimostat;

struct SweepResult {
  double perCallSeconds = 0.0;
  double batchedSeconds = 0.0;
  double maxAbsDiff = 0.0;
  /// The default (quotienting) path: applied, and its drift from per-call.
  bool reducedApplied = false;
  double reducedMaxAbsDiff = 0.0;
};

double maxAbsDiff(const engine::AnalysisResponse& response,
                  const std::vector<double>& reference) {
  double maxDiff = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double diff = response.results[i].value - reference[i];
    maxDiff = std::max(maxDiff, diff < 0 ? -diff : diff);
  }
  return maxDiff;
}

SweepResult compareSweep(const dtmc::Model& model,
                         const std::vector<std::string>& properties) {
  SweepResult result;

  // Per-call baseline: one independent check per property on a prebuilt
  // model, with no batching across properties.
  const auto build = dtmc::buildExplicit(model);
  const mc::Checker checker(build.dtmc, model);
  std::vector<double> perCall;
  perCall.reserve(properties.size());
  {
    const util::Stopwatch timer;
    for (const auto& property : properties) {
      perCall.push_back(checker.check(property).value);
    }
    result.perCallSeconds = timer.elapsedSeconds();
  }

  // Batched: one engine request, one shared transient sweep. Warm the model
  // cache first (recording the model's fingerprint) so the measured time is
  // checking only.
  engine::AnalysisEngine engine;
  (void)engine.ensureBuilt(model);
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = properties;
  request.options.reduction.quotient = reduce::Toggle::kOff;
  {
    const util::Stopwatch timer;
    const auto response = engine.analyze(request);
    result.batchedSeconds = timer.elapsedSeconds();
    result.maxAbsDiff = maxAbsDiff(response, perCall);
  }
  request.options.reduction.quotient = reduce::Toggle::kAuto;
  const auto reduced = engine.analyze(request);
  result.reducedApplied = reduced.reduction.applied;
  result.reducedMaxAbsDiff = maxAbsDiff(reduced, perCall);
  return result;
}

/// Prints the row; true when batching is bit-for-bit and the default path
/// quotiented within 1e-9.
bool report(const char* title, const SweepResult& result) {
  std::printf("%-34s per-call %8.3fs   batched %8.3fs   speedup %5.1fx   "
              "max|diff| %.1e\n",
              title, result.perCallSeconds, result.batchedSeconds,
              result.perCallSeconds / result.batchedSeconds,
              result.maxAbsDiff);
  const bool reducedOk =
      result.reducedApplied && result.reducedMaxAbsDiff <= 1e-9;
  std::printf("%-34s quotient max|diff| %.1e (applied, within 1e-9: %s)\n",
              "  default path:", result.reducedMaxAbsDiff,
              reducedOk ? "yes" : "NO");
  return result.maxAbsDiff == 0.0 && reducedOk;
}

}  // namespace

int main() {
  std::printf("=== Engine horizon batching vs per-call checks ===\n\n");
  bool ok = true;

  // Table III-style: P2 of the L=6 Viterbi decoder at T=100..1000.
  {
    viterbi::ViterbiParams params;  // L=6, SNR 5 dB
    const viterbi::ReducedViterbiModel model(params);
    std::vector<std::string> properties;
    for (std::uint64_t horizon = 100; horizon <= 1000; horizon += 100) {
      properties.push_back("R=? [ I=" + std::to_string(horizon) + " ]");
    }
    ok = report("Table III sweep (T=100..1000):",
                compareSweep(model, properties)) && ok;
  }

  // Table IV-style: C1 of the convergence model at T=100..1000.
  {
    viterbi::ViterbiParams params;
    params.tracebackLength = 8;
    params.snrDb = 8.0;
    const viterbi::ConvergenceViterbiModel model(params, 12);
    std::vector<std::string> properties;
    for (std::uint64_t horizon = 100; horizon <= 1000; horizon += 100) {
      properties.push_back("R=? [ I=" + std::to_string(horizon) + " ]");
    }
    ok = report("Table IV sweep (T=100..1000):",
                compareSweep(model, properties)) && ok;
  }

  // Figure 2-style: fifteen nc<L> rewards at one horizon (one sweep serves
  // every reward structure).
  {
    viterbi::ViterbiParams params;
    params.snrDb = 8.0;
    const viterbi::ConvergenceViterbiModel model(params, 18);
    std::vector<std::string> properties;
    for (int L = 2; L <= 16; ++L) {
      properties.push_back("R{\"nc" + std::to_string(L) + "\"}=? [ I=500 ]");
    }
    ok = report("Figure 2 sweep (nc2..nc16, I=500):",
                compareSweep(model, properties)) && ok;
  }

  return ok ? 0 : 1;
}
