#include "sweep/runner.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

namespace mimostat::sweep {

namespace {

/// Per-point execution plan assembled before anything runs.
struct PointPlan {
  std::shared_ptr<const dtmc::Model> model;
  std::vector<std::string> properties;
  std::string error;
  /// Which request serves this point, and where its properties start in
  /// that request's property list.
  std::size_t group = 0;
  std::size_t offset = 0;
};

}  // namespace

ResultTable Runner::run(const SweepSpec& spec) const {
  if (!spec.factory) {
    throw std::invalid_argument("SweepSpec '" + spec.name +
                                "': no model factory");
  }
  if (!spec.properties) {
    throw std::invalid_argument("SweepSpec '" + spec.name +
                                "': no property generator");
  }

  const std::vector<Params> points = spec.space.points();
  std::vector<PointPlan> plans(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointPlan& plan = plans[p];
    try {
      // Properties first: an empty list skips the point entirely, so its
      // model is never even constructed.
      plan.properties = spec.properties(points[p]);
      if (plan.properties.empty()) continue;
      plan.model = spec.factory(points[p]);
      if (plan.model == nullptr) plan.error = "model factory returned null";
    } catch (const std::exception& e) {
      plan.error = e.what();
    }
  }

  // Group points into engine requests: every point whose factory returned
  // the same model object, or a model with the same fingerprint (equal
  // fingerprints mean interchangeable models), joins one request (in point
  // order), so sibling horizons batch into one transient sweep.
  std::vector<engine::AnalysisRequest> requests;
  // Keyed by (has fingerprint, fingerprint or model address).
  std::map<std::pair<bool, std::uint64_t>, std::size_t> groupOf;
  for (std::size_t p = 0; p < points.size(); ++p) {
    PointPlan& plan = plans[p];
    // A generator may return an empty list to skip a point: it contributes
    // no rows — and must not cost a model build either.
    if (!plan.error.empty() || plan.properties.empty()) continue;
    const std::optional<std::uint64_t> fingerprint = plan.model->fingerprint();
    const std::uint64_t address =
        reinterpret_cast<std::uintptr_t>(plan.model.get());
    const auto [it, inserted] = groupOf.emplace(
        std::pair{fingerprint.has_value(), fingerprint.value_or(address)},
        requests.size());
    const std::size_t group = it->second;
    if (inserted) requests.push_back({plan.model.get(), {}, spec.options});
    engine::AnalysisRequest& request = requests[group];
    plan.group = group;
    plan.offset = request.properties.size();
    request.properties.insert(request.properties.end(),
                              plan.properties.begin(), plan.properties.end());
  }

  // Concurrency boundary: analyzeAll is the only line that fans out across
  // threads, and it returns responses in request order regardless of
  // scheduling. The Runner itself therefore owns no locked state — the plan
  // assembly above and the scatter below are single-threaded, and row order
  // (hence CSV/JSON byte order) depends only on point order.
  const std::vector<engine::AnalysisResponse> responses =
      engine_.analyzeAll(requests);

  // Scatter back into point-major, property-major rows.
  std::vector<ResultRow> rows;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const PointPlan& plan = plans[p];
    const auto baseRow = [&] {
      ResultRow row;
      row.point = p;
      row.params = points[p].values();
      return row;
    };
    if (!plan.error.empty()) {
      // Factory/generator failure: the whole point failed, so it reports as
      // a single property-less error row.
      ResultRow row = baseRow();
      row.value = std::numeric_limits<double>::quiet_NaN();
      row.satisfied = false;
      row.error = plan.error;
      rows.push_back(std::move(row));
      continue;
    }
    // Skipped point (generator returned no properties): no request was
    // issued, so plan.group must not be dereferenced.
    if (plan.properties.empty()) continue;
    const engine::AnalysisResponse& response = responses[plan.group];
    for (std::size_t j = 0; j < plan.properties.size(); ++j) {
      ResultRow row = baseRow();
      row.property = plan.properties[j];
      row.backend = response.backend;
      row.states = response.states;
      row.transitions = response.transitions;
      row.cacheHit = response.cacheHit;
      row.buildSeconds = response.buildSeconds;
      row.timing = response.timing;
      row.reduction = response.reduction;
      row.plan = response.plan;
      if (!response.error.empty()) {
        row.value = std::numeric_limits<double>::quiet_NaN();
        row.satisfied = false;
        row.error = response.error;
      } else {
        const engine::AnalysisResult& result =
            response.results[plan.offset + j];
        row.value = result.value;
        row.satisfied = result.satisfied;
        row.samples = result.samples;
        row.interval95 = result.interval95;
        row.batched = result.batched;
        row.solver = result.solver;
        row.checkSeconds = result.checkSeconds;
        row.error = result.error;
        if (!row.ok()) {
          // Failed rows must not export as passing zeros: value reads as a
          // gap (NaN -> "nan"/null) and satisfied as false.
          row.value = std::numeric_limits<double>::quiet_NaN();
          row.satisfied = false;
        }
      }
      rows.push_back(std::move(row));
    }
  }

  return ResultTable(spec.name, spec.space.axisNames(), std::move(rows));
}

}  // namespace mimostat::sweep
