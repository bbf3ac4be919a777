#include "dtmc/compose.hpp"

#include <cassert>
#include <charconv>
#include <string>

namespace mimostat::dtmc {

SynchronousProduct::SynchronousProduct(std::vector<const Model*> components)
    : components_(std::move(components)) {
  assert(!components_.empty());
  std::size_t offset = 0;
  for (const Model* component : components_) {
    const std::size_t width = component->variables().size();
    offsets_.push_back(offset);
    widths_.push_back(width);
    offset += width;
  }
}

std::vector<VarSpec> SynchronousProduct::variables() const {
  std::vector<VarSpec> vars;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    for (VarSpec v : components_[i]->variables()) {
      v.name = "m" + std::to_string(i) + "_" + v.name;
      vars.push_back(std::move(v));
    }
  }
  return vars;
}

State SynchronousProduct::componentState(const State& s, std::size_t idx) const {
  return State(s.begin() + static_cast<std::ptrdiff_t>(offsets_[idx]),
               s.begin() + static_cast<std::ptrdiff_t>(offsets_[idx] +
                                                       widths_[idx]));
}

std::vector<State> SynchronousProduct::initialStates() const {
  std::vector<State> product{{}};
  for (const Model* component : components_) {
    const std::vector<State> componentInitial = component->initialStates();
    std::vector<State> next;
    next.reserve(product.size() * componentInitial.size());
    for (const State& prefix : product) {
      for (const State& suffix : componentInitial) {
        State combined = prefix;
        combined.insert(combined.end(), suffix.begin(), suffix.end());
        next.push_back(std::move(combined));
      }
    }
    product = std::move(next);
  }
  return product;
}

void SynchronousProduct::transitions(const State& s, Successors& out) const {
  // Product distribution, built component by component; each component's
  // successors arrive in a State-form sink.
  std::vector<Transition> partial{{1.0, {}}};
  Successors componentSucc;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    componentSucc.clear();
    components_[i]->transitions(componentState(s, i), componentSucc);
    std::vector<Transition> next;
    next.reserve(partial.size() * componentSucc.stateEntries().size());
    for (const Transition& prefix : partial) {
      for (const Transition& suffix : componentSucc.stateEntries()) {
        Transition combined;
        combined.prob = prefix.prob * suffix.prob;
        combined.target = prefix.target;
        combined.target.insert(combined.target.end(), suffix.target.begin(),
                               suffix.target.end());
        next.push_back(std::move(combined));
      }
    }
    partial = std::move(next);
  }
  for (const Transition& t : partial) out.add(t.prob, t.target);
}

bool SynchronousProduct::atom(const State& s, std::string_view name) const {
  // Qualified form m<i>_<atom>: dispatch to one component.
  if (name.size() > 2 && name[0] == 'm') {
    std::size_t idx = 0;
    const char* begin = name.data() + 1;
    const char* end = name.data() + name.size();
    const auto [ptr, ec] = std::from_chars(begin, end, idx);
    if (ec == std::errc{} && ptr < end && *ptr == '_' &&
        idx < components_.size()) {
      const std::string_view local(ptr + 1,
                                   static_cast<std::size_t>(end - ptr - 1));
      return components_[idx]->atom(componentState(s, idx), local);
    }
  }
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i]->atom(componentState(s, i), name)) return true;
  }
  return false;
}

double SynchronousProduct::stateReward(const State& s,
                                       std::string_view name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    total += components_[i]->stateReward(componentState(s, i), name);
  }
  return total;
}

}  // namespace mimostat::dtmc
