// pCTL abstract syntax (Hansson & Jonsson logic, PRISM property syntax).
//
// The paper uses:
//   P1: P=? [ G<=T !flag ]          (best case)
//   P2: R=? [ I=T ]                 (average case / BER at steady state)
//   P3: P=? [ F<=T errs>1 ]         (worst case)
//   C1: R=? [ I=T ]                 (convergence, over a different reward)
// plus bounded-probability forms like P>=0.99 [...] for assertions.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <cstdint>

namespace mimostat::pctl {

// ---------------------------------------------------------------- state formulas

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

[[nodiscard]] bool evalCmp(CmpOp op, std::int64_t lhs, std::int64_t rhs);
[[nodiscard]] bool evalCmp(CmpOp op, double lhs, double rhs);

struct StateFormula;
using StateFormulaPtr = std::shared_ptr<const StateFormula>;

struct StateFormula {
  enum class Kind { kTrue, kFalse, kAtom, kVarCmp, kNot, kAnd, kOr };

  Kind kind;
  std::string name;            // kAtom: label name; kVarCmp: variable name
  CmpOp op = CmpOp::kEq;       // kVarCmp
  std::int64_t value = 0;      // kVarCmp
  StateFormulaPtr lhs;         // kNot/kAnd/kOr
  StateFormulaPtr rhs;         // kAnd/kOr

  static StateFormulaPtr makeTrue();
  static StateFormulaPtr makeFalse();
  static StateFormulaPtr makeAtom(std::string name);
  static StateFormulaPtr makeVarCmp(std::string var, CmpOp op, std::int64_t v);
  static StateFormulaPtr makeNot(StateFormulaPtr f);
  static StateFormulaPtr makeAnd(StateFormulaPtr a, StateFormulaPtr b);
  static StateFormulaPtr makeOr(StateFormulaPtr a, StateFormulaPtr b);
};

// ---------------------------------------------------------------- path formulas

struct PathFormula {
  enum class Kind { kNext, kUntil, kFinally, kGlobally };

  Kind kind;
  StateFormulaPtr lhs;               // kUntil left; others: the operand
  StateFormulaPtr rhs;               // kUntil right
  std::optional<std::uint64_t> bound;  // step bound (<=k); nullopt = unbounded
};

/// A path formula is time-bounded when every sampled path decides it after a
/// fixed number of steps: X always, F/G/U only with an explicit step bound.
/// This is exactly the class a statistical backend can estimate from finite
/// paths.
[[nodiscard]] bool isTimeBounded(const PathFormula& f);

// ---------------------------------------------------------------- properties

/// P-operator query: either a value query (P=?) or a bound (P >= 0.99 etc.).
struct ProbQuery {
  bool isQuery = true;          // P=?
  CmpOp boundOp = CmpOp::kGe;   // when !isQuery
  double boundValue = 0.0;      // when !isQuery
  PathFormula path;
};

/// R-operator query over a named reward structure.
struct RewardQuery {
  enum class Kind {
    kInstantaneous,  // R=? [ I=k ]
    kCumulative,     // R=? [ C<=k ]
    kSteadyState,    // R=? [ S ]
    kReachability,   // R=? [ F phi ] — expected reward accumulated until phi
  };
  Kind kind = Kind::kInstantaneous;
  std::uint64_t bound = 0;      // k for I=/C<=
  StateFormulaPtr target;       // phi for F
  std::string rewardName;       // empty = default reward
  bool isQuery = true;          // R=?
  CmpOp boundOp = CmpOp::kGe;
  double boundValue = 0.0;
};

struct Property {
  enum class Kind { kProb, kReward };
  Kind kind = Kind::kProb;
  ProbQuery prob;
  RewardQuery reward;
};

}  // namespace mimostat::pctl
