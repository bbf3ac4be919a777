// The pCTL printer: properties back to PRISM-ish concrete syntax, for the
// parser's round-trip tests (parse(print(p)) prints as p). No production
// path prints a formula, so it lives with the tests.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include "pctl/ast.hpp"

namespace mimostat::pctl {

inline const char* cmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

inline int precedence(StateFormula::Kind kind) {
  switch (kind) {
    case StateFormula::Kind::kOr:
      return 1;
    case StateFormula::Kind::kAnd:
      return 2;
    case StateFormula::Kind::kNot:
      return 3;
    default:
      return 4;
  }
}

inline void printFormula(const StateFormula& f, std::ostream& os,
                         int parentPrec) {
  const int prec = precedence(f.kind);
  const bool parens = prec < parentPrec;
  if (parens) os << '(';
  switch (f.kind) {
    case StateFormula::Kind::kTrue:
      os << "true";
      break;
    case StateFormula::Kind::kFalse:
      os << "false";
      break;
    case StateFormula::Kind::kAtom:
      os << '"' << f.name << '"';
      break;
    case StateFormula::Kind::kVarCmp:
      os << f.name << cmpOpName(f.op) << f.value;
      break;
    case StateFormula::Kind::kNot:
      os << '!';
      printFormula(*f.lhs, os, prec + 1);
      break;
    case StateFormula::Kind::kAnd:
      printFormula(*f.lhs, os, prec);
      os << " & ";
      printFormula(*f.rhs, os, prec + 1);
      break;
    case StateFormula::Kind::kOr:
      printFormula(*f.lhs, os, prec);
      os << " | ";
      printFormula(*f.rhs, os, prec + 1);
      break;
  }
  if (parens) os << ')';
}

inline void printBound(const std::optional<std::uint64_t>& bound,
                       std::ostream& os) {
  if (bound) os << "<=" << *bound;
}

inline std::string toString(const StateFormula& f) {
  std::ostringstream os;
  printFormula(f, os, 0);
  return os.str();
}

inline std::string toString(const PathFormula& f) {
  std::ostringstream os;
  switch (f.kind) {
    case PathFormula::Kind::kNext:
      os << "X " << toString(*f.lhs);
      break;
    case PathFormula::Kind::kUntil:
      os << toString(*f.lhs) << " U";
      printBound(f.bound, os);
      os << ' ' << toString(*f.rhs);
      break;
    case PathFormula::Kind::kFinally:
      os << 'F';
      printBound(f.bound, os);
      os << ' ' << toString(*f.lhs);
      break;
    case PathFormula::Kind::kGlobally:
      os << 'G';
      printBound(f.bound, os);
      os << ' ' << toString(*f.lhs);
      break;
  }
  return os.str();
}

inline std::string toString(const Property& p) {
  std::ostringstream os;
  if (p.kind == Property::Kind::kProb) {
    os << 'P';
    if (p.prob.isQuery) {
      os << "=?";
    } else {
      os << cmpOpName(p.prob.boundOp) << p.prob.boundValue;
    }
    os << " [ " << toString(p.prob.path) << " ]";
  } else {
    os << 'R';
    if (!p.reward.rewardName.empty()) {
      os << "{\"" << p.reward.rewardName << "\"}";
    }
    if (p.reward.isQuery) {
      os << "=?";
    } else {
      os << cmpOpName(p.reward.boundOp) << p.reward.boundValue;
    }
    os << " [ ";
    switch (p.reward.kind) {
      case RewardQuery::Kind::kInstantaneous:
        os << "I=" << p.reward.bound;
        break;
      case RewardQuery::Kind::kCumulative:
        os << "C<=" << p.reward.bound;
        break;
      case RewardQuery::Kind::kSteadyState:
        os << 'S';
        break;
      case RewardQuery::Kind::kReachability:
        os << "F " << toString(*p.reward.target);
        break;
    }
    os << " ]";
  }
  return os.str();
}

}  // namespace mimostat::pctl
