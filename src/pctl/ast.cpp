#include "pctl/ast.hpp"

#include <cassert>

namespace mimostat::pctl {

bool evalCmp(CmpOp op, double lhs, double rhs) {
  switch (op) {
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

bool evalCmp(CmpOp op, std::int64_t lhs, std::int64_t rhs) {
  switch (op) {
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

StateFormulaPtr StateFormula::makeTrue() {
  auto f = std::make_shared<StateFormula>();
  f->kind = Kind::kTrue;
  return f;
}

StateFormulaPtr StateFormula::makeFalse() {
  auto f = std::make_shared<StateFormula>();
  f->kind = Kind::kFalse;
  return f;
}

StateFormulaPtr StateFormula::makeAtom(std::string name) {
  auto f = std::make_shared<StateFormula>();
  f->kind = Kind::kAtom;
  f->name = std::move(name);
  return f;
}

StateFormulaPtr StateFormula::makeVarCmp(std::string var, CmpOp op,
                                         std::int64_t v) {
  auto f = std::make_shared<StateFormula>();
  f->kind = Kind::kVarCmp;
  f->name = std::move(var);
  f->op = op;
  f->value = v;
  return f;
}

StateFormulaPtr StateFormula::makeNot(StateFormulaPtr inner) {
  auto f = std::make_shared<StateFormula>();
  f->kind = Kind::kNot;
  f->lhs = std::move(inner);
  return f;
}

StateFormulaPtr StateFormula::makeAnd(StateFormulaPtr a, StateFormulaPtr b) {
  auto f = std::make_shared<StateFormula>();
  f->kind = Kind::kAnd;
  f->lhs = std::move(a);
  f->rhs = std::move(b);
  return f;
}

StateFormulaPtr StateFormula::makeOr(StateFormulaPtr a, StateFormulaPtr b) {
  auto f = std::make_shared<StateFormula>();
  f->kind = Kind::kOr;
  f->lhs = std::move(a);
  f->rhs = std::move(b);
  return f;
}

bool isTimeBounded(const PathFormula& f) {
  return f.kind == PathFormula::Kind::kNext || f.bound.has_value();
}

}  // namespace mimostat::pctl
