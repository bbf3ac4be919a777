// Executes a SweepSpec through one shared AnalysisEngine.
//
// The runner is where the declarative spec recovers everything the
// hand-rolled bench loops lost:
//   - points sharing one model object (SweepSpec::share, or a factory that
//     memoizes) or models with equal fingerprints (dtmc::Model::fingerprint,
//     e.g. a factory that builds a fresh ReducedViterbiModel per horizon)
//     always coalesce into a single engine request, so their horizon
//     properties ride one batched transient sweep;
//   - distinct-but-structurally-equal models still share one DTMC build
//     through the engine's signature-keyed model cache;
//   - independent requests run concurrently on the engine's pool, while
//     rows come back in point enumeration order regardless of thread count
//     (deterministic bytes for a fixed spec and seed);
//   - failures stay local: a throwing model factory, an unparsable
//     property, or a request-level failure marks only its own rows.
#pragma once

#include "engine/engine.hpp"
#include "sweep/result_table.hpp"
#include "sweep/spec.hpp"

namespace mimostat::sweep {

class Runner {
 public:
  explicit Runner(engine::AnalysisEngine& engine) : engine_(engine) {}

  /// Enumerate the spec's points, run them, and collect the tidy table.
  /// Throws std::invalid_argument when the spec has no factory or no
  /// property generator; every other failure is captured per row.
  [[nodiscard]] ResultTable run(const SweepSpec& spec) const;

 private:
  engine::AnalysisEngine& engine_;
};

}  // namespace mimostat::sweep
