// SweepSpec: the declarative binding from a parameter point to work.
//
// A spec names a ParamSpace, a model factory (Params -> dtmc::Model), a
// property generator (Params -> pCTL strings), and the engine RequestOptions
// shared by every point. Together with sweep::Runner it replaces the
// hand-rolled nested loops of the bench drivers: the whole of Table III is
//
//   sweep::SweepSpec spec("table3");
//   spec.space.cross(sweep::Axis::ints("T", 100, 1000, 100));
//   spec.share(model);                       // one model for every point
//   spec.properties = [](const sweep::Params& p) {
//     return std::vector<std::string>{
//         "R=? [ I=" + std::to_string(p.getInt("T")) + " ]"};
//   };
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dtmc/model.hpp"
#include "engine/request.hpp"
#include "sweep/param_space.hpp"

namespace mimostat::sweep {

/// Produces the model a point is checked against. The returned pointer is
/// kept alive by the runner for the duration of the sweep. Returning the
/// SAME shared_ptr for several points — or models with equal fingerprints
/// (dtmc::Model::fingerprint) — marks them as sharing one model, and the
/// runner coalesces their properties into a single engine request (one
/// build, one batched transient sweep). Distinct-but-structurally-equal
/// models still share one build through the engine's signature-keyed cache.
using ModelFactory =
    std::function<std::shared_ptr<const dtmc::Model>(const Params&)>;

/// Produces the pCTL property strings checked at a point. Returning an
/// empty list skips the point entirely: it contributes no result rows and
/// its model factory is never invoked (the generator runs first).
using PropertyGenerator =
    std::function<std::vector<std::string>(const Params&)>;

struct SweepSpec {
  SweepSpec() = default;
  explicit SweepSpec(std::string specName) : name(std::move(specName)) {}

  /// Label used in exports and logs.
  std::string name;
  ParamSpace space;
  ModelFactory factory;
  PropertyGenerator properties;
  /// Engine options applied to every point (backend, state budget, build
  /// and check options, sampling seeds...).
  engine::RequestOptions options;

  /// Bind every point to one shared model instance (the common case for
  /// horizon/reward-family sweeps; enables cross-point coalescing).
  SweepSpec& share(std::shared_ptr<const dtmc::Model> model) {
    factory = [model = std::move(model)](const Params&) { return model; };
    return *this;
  }

  /// Bind a fixed property list to every point.
  SweepSpec& withProperties(std::vector<std::string> fixed) {
    properties = [fixed = std::move(fixed)](const Params&) { return fixed; };
    return *this;
  }
};

}  // namespace mimostat::sweep
