// Analysis requests: the engine's input vocabulary.
//
// A request names a model, a list of pCTL property strings, and options
// controlling backend selection, caching and batching. The paper's workflow
// — build one DTMC, sweep many properties over it (Tables I-V) — is exactly
// one request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/model.hpp"
#include "mc/checker.hpp"
#include "reduce/reduce.hpp"
#include "smc/smc.hpp"

namespace mimostat::engine {

/// Which checking backend serves a request.
enum class Backend {
  /// Exact when the reachable state space fits the state budget, sampling
  /// otherwise (the paper's exact-vs-statistical complexity trade-off).
  kAuto,
  /// Exact probabilistic model checking (mc::Checker on the built DTMC).
  kExact,
  /// Statistical model checking (smc:: path sampling; bounded properties
  /// only, results carry confidence intervals).
  kSampling,
};

[[nodiscard]] const char* backendName(Backend backend);

struct RequestOptions {
  Backend backend = Backend::kAuto;
  /// kAuto falls back to sampling when the reachable state count exceeds
  /// this budget.
  std::uint64_t stateBudget = 2'000'000;
  /// State-space reduction (exact backend): plan-aware bisimulation
  /// quotienting before checking. The default quotients large models and
  /// long plans only (reduce::quotientSelected: 100,000 states or 256 plan
  /// passes).
  reduce::Options reduction;
  dtmc::BuildOptions build;
  /// Checker options. The engine overwrites check.elimination with
  /// reduce::eliminationSelected (a small quotient applied).
  mc::CheckOptions check;
  /// Sampling backend: path counts and the request's base seed. Each
  /// property of a request samples from its own seed derived from
  /// (smc.seed, property index), so sibling estimates are independent;
  /// results are bit-identical for a fixed seed at any thread count.
  smc::SmcOptions smc;
  /// Sampling backend: SPRT error levels for bounded-probability properties
  /// (P>=theta [...]). The per-property seed overrides sprt.seed.
  smc::SprtOptions sprt;
};

struct AnalysisRequest {
  /// Must stay alive until the response is produced. Not owned.
  const dtmc::Model* model = nullptr;
  std::vector<std::string> properties;
  RequestOptions options;
};

}  // namespace mimostat::engine
