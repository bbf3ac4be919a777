// PmlModel: adapts a parsed PML program to the dtmc::Model interface, so
// text-defined designs flow through the same builder, reductions, checker
// and engine as the built-in C++ models.
//
// Semantics (documented subset of PRISM DTMCs):
//  - exactly one module; per state, the distributions of all enabled
//    commands are summed and must total 1 (disjoint guards are the normal
//    style); a state with no enabled command self-loops (absorbing);
//  - update assignments read the *pre*-state; unassigned variables keep
//    their value; out-of-range assignments throw at exploration time;
//  - the unnamed rewards block is the default reward structure; labels
//    back quoted atoms in pCTL properties.
#pragma once

#include <string>
#include <string_view>

#include "dtmc/model.hpp"
#include "pml/ast.hpp"
#include "pml/eval.hpp"

namespace mimostat::pml {

class PmlModel : public dtmc::Model {
 public:
  /// Parses and elaborates the program; throws PmlParseError / EvalError
  /// on malformed input.
  explicit PmlModel(std::string_view source);
  /// Wrap an already-parsed program.
  explicit PmlModel(ModelDecl decl);

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override;
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override;
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override;
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override;
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override;

  /// Load a model from a .pml file. Throws std::runtime_error on I/O
  /// failure, PmlParseError / EvalError on malformed content.
  [[nodiscard]] static PmlModel fromFile(const std::string& path);

  [[nodiscard]] const ModelDecl& decl() const { return decl_; }
  /// Constant environment after elaboration (constants may reference
  /// previously declared constants).
  [[nodiscard]] const Environment& constants() const { return constants_; }

 private:
  void elaborate();
  [[nodiscard]] Environment environmentFor(const dtmc::State& s) const;

  ModelDecl decl_;
  Environment constants_;
  std::vector<dtmc::VarSpec> varSpecs_;
  dtmc::State initial_;
};

}  // namespace mimostat::pml
