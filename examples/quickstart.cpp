// Quickstart: statistical guarantees for a Viterbi decoder in ~40 lines.
//
// One AnalysisRequest carries the model plus every pCTL property of
// interest; the AnalysisEngine builds the (reduced, bisimilar) DTMC once,
// batches the horizon-bounded queries into a single transient sweep, and
// answers them all in one response. A second request for the same design is
// served from the engine's model cache without rebuilding.
#include <cstdio>

#include "engine/engine.hpp"
#include "viterbi/model_reduced.hpp"

int main() {
  using namespace mimostat;

  // 1. Describe the design under analysis.
  viterbi::ViterbiParams params;
  params.tracebackLength = 6;  // L = 6 > 5m for memory m = 1
  params.snrDb = 5.0;
  const viterbi::ReducedViterbiModel model(params);

  // 2. Ask the engine for the paper's metrics over T = 300 clock cycles —
  //    best case (P1), average case / BER (P2) and a PRISM-style assertion —
  //    as one request.
  engine::AnalysisEngine engine;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {
      "P=? [ G<=300 !flag ]",  // P1: no error in 300 cycles
      "R=? [ I=300 ]",         // P2: BER at steady state
      "R<=0.5 [ I=300 ]",      // guarantee: BER <= 0.5
  };
  const engine::AnalysisResponse response = engine.analyze(request);

  std::printf("Model: %llu states, %llu transitions (RI=%u, %s backend)\n",
              static_cast<unsigned long long>(response.states),
              static_cast<unsigned long long>(response.transitions),
              response.reachabilityIterations,
              engine::backendName(response.backend));
  std::printf("P1 (no error in 300 cycles):   %.3e\n",
              response.results[0].value);
  std::printf("P2 (BER at steady state):      %.4f\n",
              response.results[1].value);
  std::printf("Guarantee \"BER <= 0.5\":        %s\n",
              response.results[2].satisfied ? "HOLDS" : "VIOLATED");

  // 3. The worst-case metric needs the error-counter variant of the model —
  //    a separate design, so a separate request.
  auto p3Params = params;
  p3Params.withErrorCounter = true;
  const viterbi::ReducedViterbiModel p3Model(p3Params);
  engine::AnalysisRequest p3Request;
  p3Request.model = &p3Model;
  p3Request.properties = {"P=? [ F<=300 errs>1 ]"};
  const auto p3 = engine.analyze(p3Request);
  std::printf("P3 (more than 1 error):        %.6f\n", p3.results[0].value);

  // 4. Re-checking the first design at new horizons skips the DTMC build:
  //    the engine serves it from the model cache, and the model's parameter
  //    fingerprint skips even the state-space exploration.
  engine::AnalysisRequest again;
  again.model = &model;
  again.properties = {"R=? [ I=600 ]", "R=? [ I=1000 ]"};
  const auto sweep = engine.analyze(again);
  std::printf("P2 at T=600/1000 (cache hit: %s): %.4f / %.4f\n",
              sweep.cacheHit ? "yes" : "no", sweep.results[0].value,
              sweep.results[1].value);
  return 0;
}
