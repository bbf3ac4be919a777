// Shared by the paper-table benches that check property sets on one model:
// each set is an exact-backend request. The first request builds the model;
// a later one on a fingerprinted model (dtmc::Model::fingerprint) is served
// from the engine's cache without re-exploring the state space. Rows carry
// the paper's table columns: the built model's size, its construction time
// and the per-property check time.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "dtmc/model.hpp"
#include "engine/engine.hpp"

namespace mimostat::bench {

/// Checks `properties` on `model`. Throws on a failed request or on the
/// first failed property.
inline std::vector<core::GuaranteeReport> checkRows(
    engine::AnalysisEngine& engine, const dtmc::Model& model,
    const std::vector<std::string>& properties) {
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = properties;
  request.options.backend = engine::Backend::kExact;
  const engine::AnalysisResponse response = engine.analyze(request);

  std::vector<core::GuaranteeReport> rows;
  rows.reserve(response.results.size());
  for (const engine::AnalysisResult& result : response.results) {
    if (!result.ok()) throw std::runtime_error(result.error);
    core::GuaranteeReport row;
    row.property = result.property;
    row.value = result.value;
    row.states = response.states;
    row.transitions = response.transitions;
    row.reachabilityIterations = response.reachabilityIterations;
    row.buildSeconds = response.buildSeconds;
    row.checkSeconds = result.checkSeconds;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace mimostat::bench
