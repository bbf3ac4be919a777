// Synchronous parallel composition of DTMC models — the "compositional
// approach for larger MIMO systems" the paper names as future work.
//
// Components step simultaneously and independently each clock (the RTL
// picture: separate per-antenna datapaths clocked together). The product's
// transition distribution is the product of the component distributions;
// rewards add across components; atoms are dispatched per component and
// OR-ed (an "error" anywhere is an error of the composition). Component
// variables are exposed under the prefix "m<i>_" so pCTL properties can
// address them individually (e.g. "m0_flag & m1_flag").
#pragma once

#include <memory>
#include <vector>

#include "dtmc/model.hpp"

namespace mimostat::dtmc {

class SynchronousProduct : public Model {
 public:
  /// Components must outlive the product.
  explicit SynchronousProduct(std::vector<const Model*> components);

  [[nodiscard]] std::vector<VarSpec> variables() const override;
  [[nodiscard]] std::vector<State> initialStates() const override;
  void transitions(const State& s, Successors& out) const override;
  /// OR of the component atoms; names of the form "m<i>_<atom>" address a
  /// single component.
  [[nodiscard]] bool atom(const State& s, std::string_view name) const override;
  /// Sum of the component rewards (same name passed through).
  [[nodiscard]] double stateReward(const State& s,
                                   std::string_view name) const override;

  [[nodiscard]] std::size_t numComponents() const { return components_.size(); }

  /// Slice of the product state belonging to component `idx`.
  [[nodiscard]] State componentState(const State& s, std::size_t idx) const;

 private:
  std::vector<const Model*> components_;
  std::vector<VarLayout> layouts_;    // per component
  std::vector<std::size_t> offsets_;  // variable offset per component
};

}  // namespace mimostat::dtmc
