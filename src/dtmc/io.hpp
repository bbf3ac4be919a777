// PRISM-compatible export of explicit models (.tra transition list and
// .sta state table) plus Graphviz dot output for small models.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"

namespace mimostat::dtmc {

/// PRISM explicit transition format: first line "numStates numTransitions",
/// then "src dst prob" per transition.
void writeTra(const ExplicitDtmc& dtmc, std::ostream& os);

/// PRISM state file: header "(v1,v2,...)" then "idx:(x1,x2,...)".
void writeSta(const ExplicitDtmc& dtmc, std::ostream& os);

/// PRISM label file: "0=\"init\" 1=\"error\"" header, then "state: ids".
void writeLab(const ExplicitDtmc& dtmc, const Model& model,
              const std::vector<std::string>& labels, std::ostream& os);

/// PRISM state-rewards file: header "numStates numNonzero", then
/// "state reward" lines.
void writeSrew(const ExplicitDtmc& dtmc, const Model& model,
               std::string_view rewardName, std::ostream& os);

// ---------------------------------------------------------------- import

/// Contents of a parsed PRISM-format model (any part may be absent).
struct ImportedExplicit {
  ExplicitDtmc dtmc;
  /// label name -> per-state truth set (packed, from a .lab stream).
  std::vector<std::pair<std::string, la::BitVector>> labels;
  /// reward name -> per-state value (from .srew streams).
  std::vector<std::pair<std::string, std::vector<double>>> rewards;
};

/// Parse a .tra stream (+ optional .sta for the variable layout). The
/// initial distribution is a point mass on `initialState`. The state table
/// packs each .sta row by the layout of the observed value ranges.
/// Throws std::runtime_error on malformed input (an index or value that does
/// not fit its type, a probability outside [0, 1]), std::invalid_argument
/// when those ranges need more than 64 bits.
[[nodiscard]] ExplicitDtmc readTra(std::istream& tra, std::istream* sta,
                                   std::uint32_t initialState = 0);

/// Parse a .lab stream into (name, truth-set) pairs. Throws
/// std::runtime_error on malformed input (an index that does not fit).
[[nodiscard]] std::vector<std::pair<std::string, la::BitVector>> readLab(
    std::istream& lab, std::uint32_t numStates);

/// Parse a .srew stream into a per-state reward vector.
[[nodiscard]] std::vector<double> readSrew(std::istream& srew,
                                           std::uint32_t numStates);

/// Adapts an ImportedExplicit to the Model interface so imported models
/// flow through mc::Checker like native ones. The transition function
/// replays the stored matrix rows.
class ImportedModel : public Model {
 public:
  explicit ImportedModel(ImportedExplicit imported);

  [[nodiscard]] std::vector<VarSpec> variables() const override;
  [[nodiscard]] std::vector<State> initialStates() const override;
  void transitions(const State& s, Successors& out) const override;
  [[nodiscard]] bool atom(const State& s, std::string_view name) const override;
  [[nodiscard]] double stateReward(const State& s,
                                   std::string_view name) const override;

  [[nodiscard]] const ExplicitDtmc& dtmc() const { return imported_.dtmc; }

 private:
  /// States are identified by their index variable (single var "s").
  [[nodiscard]] std::uint32_t indexOf(const State& s) const {
    return static_cast<std::uint32_t>(s[0]);
  }

  ImportedExplicit imported_;
};

}  // namespace mimostat::dtmc
