// Shared by the paper-table benches that check properties on one built
// model: build the model once with AnalysisEngine::ensureBuilt, then answer
// each property set as an exact-backend request keyed by the build's
// signature (RequestOptions::modelKey), so no request re-explores the
// state space. Rows carry the paper's table columns: the built model's
// size, its construction time and the per-property check time.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "dtmc/model.hpp"
#include "engine/engine.hpp"

namespace mimostat::bench {

/// Checks `properties` on `model`, whose build `built` came from
/// `engine.ensureBuilt(model)`. Throws on the first failed property.
inline std::vector<core::GuaranteeReport> checkRows(
    engine::AnalysisEngine& engine, const dtmc::Model& model,
    const engine::BuiltModel& built,
    const std::vector<std::string>& properties) {
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = properties;
  request.options.backend = engine::Backend::kExact;
  request.options.modelKey = built.signature;
  const engine::AnalysisResponse response = engine.analyze(request);

  std::vector<core::GuaranteeReport> rows;
  rows.reserve(response.results.size());
  for (const engine::AnalysisResult& result : response.results) {
    if (!result.ok()) throw std::runtime_error(result.error);
    core::GuaranteeReport row;
    row.property = result.property;
    row.value = result.value;
    row.satisfied = result.satisfied;
    row.states = built.dtmc.numStates();
    row.transitions = built.dtmc.numTransitions();
    row.reachabilityIterations = built.reachabilityIterations;
    row.buildSeconds = built.buildSeconds;
    row.checkSeconds = result.checkSeconds;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace mimostat::bench
