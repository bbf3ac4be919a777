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
    layouts_.push_back(component->layout());
    offsets_.push_back(offset);
    offset += layouts_.back().numVars();
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
  const auto first = s.begin() + static_cast<std::ptrdiff_t>(offsets_[idx]);
  const auto width = static_cast<std::ptrdiff_t>(layouts_[idx].numVars());
  return State(first, first + width);
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
  // Product distribution, built component by component on packed keys: the
  // product layout lists the component fields in order, so a product key is
  // the component keys concatenated, component 0 in the high bits. `out`
  // packs by the product's layout.
  std::vector<PackedTransition> partial{{1.0, 0}};
  for (std::size_t i = 0; i < components_.size(); ++i) {
    Successors componentSucc(layouts_[i]);
    components_[i]->transitions(componentState(s, i), componentSucc);
    const int shift = layouts_[i].totalBits();
    std::vector<PackedTransition> next;
    next.reserve(partial.size() * componentSucc.entries().size());
    for (const PackedTransition& prefix : partial) {
      for (const PackedTransition& suffix : componentSucc.entries()) {
        // A shift by 64 is undefined; only an all-zero prefix meets it.
        const std::uint64_t high = shift == 64 ? 0 : prefix.target << shift;
        next.push_back({prefix.prob * suffix.prob, high | suffix.target});
      }
    }
    partial = std::move(next);
  }
  out.entries().insert(out.entries().end(), partial.begin(), partial.end());
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
