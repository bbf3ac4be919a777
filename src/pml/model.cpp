#include "pml/model.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "pml/parser.hpp"

namespace mimostat::pml {

PmlModel PmlModel::fromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open PML file: " + path);
  std::ostringstream content;
  content << file.rdbuf();
  return PmlModel(content.str());
}

PmlModel::PmlModel(std::string_view source) : decl_(parseModel(source)) {
  elaborate();
}

PmlModel::PmlModel(ModelDecl decl) : decl_(std::move(decl)) { elaborate(); }

void PmlModel::elaborate() {
  // Constants in declaration order; later constants may use earlier ones.
  for (const ConstDecl& c : decl_.constants) {
    const double value = c.isInt
                             ? static_cast<double>(evaluateInt(*c.value, constants_))
                             : evaluate(*c.value, constants_);
    if (!constants_.emplace(c.name, value).second) {
      throw EvalError("duplicate constant '" + c.name + "'");
    }
  }
  // Variable ranges and initial values.
  for (const VarDecl& v : decl_.module.variables) {
    dtmc::VarSpec spec;
    spec.name = v.name;
    spec.lo = static_cast<std::int32_t>(evaluateInt(*v.low, constants_));
    spec.hi = static_cast<std::int32_t>(evaluateInt(*v.high, constants_));
    if (spec.lo > spec.hi) {
      throw EvalError("empty range for variable '" + v.name + "'");
    }
    const auto init =
        static_cast<std::int32_t>(evaluateInt(*v.init, constants_));
    if (init < spec.lo || init > spec.hi) {
      throw EvalError("init value out of range for variable '" + v.name + "'");
    }
    varSpecs_.push_back(std::move(spec));
    initial_.push_back(init);
    if (constants_.count(v.name) != 0) {
      throw EvalError("variable '" + v.name + "' shadows a constant");
    }
  }
}

std::vector<dtmc::VarSpec> PmlModel::variables() const { return varSpecs_; }

std::vector<dtmc::State> PmlModel::initialStates() const { return {initial_}; }

Environment PmlModel::environmentFor(const dtmc::State& s) const {
  Environment env = constants_;
  for (std::size_t i = 0; i < varSpecs_.size(); ++i) {
    env[varSpecs_[i].name] = static_cast<double>(s[i]);
  }
  return env;
}

void PmlModel::transitions(const dtmc::State& s,
                           dtmc::Successors& out) const {
  const Environment env = environmentFor(s);
  bool enabled = false;

  for (const Command& command : decl_.module.commands) {
    if (!isTruthy(evaluate(*command.guard, env))) continue;
    for (const Update& update : command.updates) {
      const double prob =
          update.probability ? evaluate(*update.probability, env) : 1.0;
      if (prob < 0.0) {
        throw EvalError("negative update probability in module '" +
                        decl_.module.name + "'");
      }
      if (prob == 0.0) continue;
      dtmc::State& target = out.scratch(s);
      for (const Assignment& assignment : update.assignments) {
        bool assigned = false;
        for (std::size_t i = 0; i < varSpecs_.size(); ++i) {
          if (varSpecs_[i].name == assignment.var) {
            const auto value = static_cast<std::int32_t>(
                evaluateInt(*assignment.value, env));
            if (value < varSpecs_[i].lo || value > varSpecs_[i].hi) {
              throw EvalError("assignment out of range for variable '" +
                              assignment.var + "'");
            }
            target[i] = value;
            assigned = true;
            break;
          }
        }
        if (!assigned) {
          throw EvalError("assignment to unknown variable '" +
                          assignment.var + "'");
        }
      }
      out.add(prob, target);
      enabled = true;
    }
  }

  if (!enabled) {
    // No enabled command: absorbing self-loop (PRISM's convention).
    out.add(1.0, s);
  }
}

bool PmlModel::atom(const dtmc::State& s, std::string_view name) const {
  for (const LabelDecl& label : decl_.labels) {
    if (label.name == name) {
      return isTruthy(evaluate(*label.condition, environmentFor(s)));
    }
  }
  return false;
}

double PmlModel::stateReward(const dtmc::State& s,
                             std::string_view name) const {
  const std::string_view effective =
      (name == "default") ? std::string_view{} : name;
  for (const RewardsDecl& rewards : decl_.rewards) {
    if (rewards.name != effective) continue;
    const Environment env = environmentFor(s);
    double total = 0.0;
    for (const RewardItem& item : rewards.items) {
      if (isTruthy(evaluate(*item.guard, env))) {
        total += evaluate(*item.value, env);
      }
    }
    return total;
  }
  return 0.0;
}

}  // namespace mimostat::pml
