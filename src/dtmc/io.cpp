#include "dtmc/io.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace mimostat::dtmc {

void writeTra(const ExplicitDtmc& dtmc, std::ostream& os) {
  // Full round-trip precision: probabilities must survive write/read.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << dtmc.numStates() << ' ' << dtmc.numTransitions() << '\n';
  for (std::uint32_t s = 0; s < dtmc.numStates(); ++s) {
    for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1]; ++k) {
      os << s << ' ' << dtmc.col()[k] << ' ' << dtmc.val()[k] << '\n';
    }
  }
}

void writeSta(const ExplicitDtmc& dtmc, std::ostream& os) {
  os << '(';
  const auto& vars = dtmc.varLayout().vars();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (i != 0) os << ',';
    os << vars[i].name;
  }
  os << ")\n";
  for (std::uint32_t s = 0; s < dtmc.numStates(); ++s) {
    os << s << ":(";
    const State st = dtmc.state(s);
    for (std::size_t i = 0; i < st.size(); ++i) {
      if (i != 0) os << ',';
      os << st[i];
    }
    os << ")\n";
  }
}

void writeLab(const ExplicitDtmc& dtmc, const Model& model,
              const std::vector<std::string>& labels, std::ostream& os) {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) os << ' ';
    os << i << "=\"" << labels[i] << '"';
  }
  os << '\n';
  for (std::uint32_t s = 0; s < dtmc.numStates(); ++s) {
    bool any = false;
    const State state = dtmc.state(s);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (model.atom(state, labels[i])) {
        if (!any) {
          os << s << ':';
          any = true;
        }
        os << ' ' << i;
      }
    }
    if (any) os << '\n';
  }
}

void writeSrew(const ExplicitDtmc& dtmc, const Model& model,
               std::string_view rewardName, std::ostream& os) {
  std::vector<std::pair<std::uint32_t, double>> nonzero;
  for (std::uint32_t s = 0; s < dtmc.numStates(); ++s) {
    const double r = model.stateReward(dtmc.state(s), rewardName);
    if (r != 0.0) nonzero.emplace_back(s, r);
  }
  os.precision(std::numeric_limits<double>::max_digits10);
  os << dtmc.numStates() << ' ' << nonzero.size() << '\n';
  for (const auto& [s, r] : nonzero) os << s << ' ' << r << '\n';
}

namespace {

/// readTra's row-sum slack per entry: k entries exported at six significant
/// digits can miss 1 by up to about k * 5e-7, so a present row of k entries
/// imports when its sum lies within (k + 1) * 5e-7 of 1 (the extra 5e-7
/// absorbs the summation's own rounding: 0.5 + 0.499999 and three times
/// 0.333333 import), while a row missing a share of its mass is rejected.
constexpr double kRoundingPerEntry = 5e-7;

/// The decimal integer `text` (surrounding blanks allowed) if it lies in
/// [lo, hi]. Range-checked before any narrowing, so an index of 2^32 is an
/// error rather than state 0. Throws std::runtime_error naming `what`.
std::int64_t parseInteger(std::string_view text, std::int64_t lo,
                          std::int64_t hi, const char* what) {
  const auto first = text.find_first_not_of(" \t\r");
  const auto last = text.find_last_not_of(" \t\r");
  if (first != std::string_view::npos) {
    text = text.substr(first, last - first + 1);
  }
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size() ||
      value < lo || value > hi) {
    throw std::runtime_error(std::string(what) + ": '" + std::string(text) +
                             "' is not an integer in [" + std::to_string(lo) +
                             ", " + std::to_string(hi) + "]");
  }
  return value;
}

}  // namespace

ExplicitDtmc readTra(std::istream& tra, std::istream* sta,
                     std::uint32_t initialState) {
  std::uint32_t numStates = 0;
  std::uint64_t numTransitions = 0;
  if (!(tra >> numStates >> numTransitions)) {
    throw std::runtime_error("readTra: malformed header");
  }
  struct Entry {
    std::uint32_t src;
    std::uint32_t dst;
    double prob;
  };
  // No reserve from the header count: a bogus count must end in the
  // truncation error below, not in a huge allocation.
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < numTransitions; ++i) {
    Entry e{};
    if (!(tra >> e.src >> e.dst >> e.prob)) {
      throw std::runtime_error("readTra: truncated transition list");
    }
    if (e.src >= numStates || e.dst >= numStates) {
      throw std::runtime_error("readTra: state index out of range");
    }
    // The left-product kernels assume no negative entries (la/spmv.hpp).
    if (!(e.prob >= 0.0 && e.prob <= 1.0)) {
      throw std::runtime_error("readTra: probability outside [0, 1]");
    }
    entries.push_back(e);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.src < b.src; });

  ExplicitDtmc::Raw raw;
  raw.rowPtr.assign(1, 0);
  std::uint32_t row = 0;
  for (const Entry& e : entries) {
    while (row < e.src) {
      raw.rowPtr.push_back(raw.col.size());
      ++row;
    }
    raw.col.push_back(e.dst);
    raw.val.push_back(e.prob);
  }
  while (row < numStates) {
    raw.rowPtr.push_back(raw.col.size());
    ++row;
  }
  // Missing rows stay legal (ImportedModel makes them absorbing); a present
  // one must be a distribution.
  for (std::uint32_t r = 0; r < numStates; ++r) {
    const double sum =
        std::accumulate(raw.val.begin() + raw.rowPtr[r],
                        raw.val.begin() + raw.rowPtr[r + 1], 0.0);
    const std::uint64_t entries = raw.rowPtr[r + 1] - raw.rowPtr[r];
    if (entries != 0 &&
        std::fabs(sum - 1.0) > static_cast<double>(entries + 1) *
                                   kRoundingPerEntry) {
      throw std::runtime_error("readTra: row " + std::to_string(r) +
                               " sums to " + std::to_string(sum));
    }
  }

  if (initialState >= numStates) {
    throw std::runtime_error("readTra: initial state out of range");
  }
  raw.initial.assign(numStates, 0.0);
  raw.initial[initialState] = 1.0;

  if (sta != nullptr) {
    std::string header;
    if (!std::getline(*sta, header)) {
      throw std::runtime_error("readTra: empty .sta stream");
    }
    // header: (v1,v2,...)
    std::vector<std::string> names;
    std::string current;
    for (const char c : header) {
      if (c == '(' || std::isspace(static_cast<unsigned char>(c))) continue;
      if (c == ',' || c == ')') {
        if (!current.empty()) names.push_back(std::exchange(current, {}));
      } else {
        current.push_back(c);
      }
    }
    std::vector<State> states(numStates, State(names.size(), 0));
    std::vector<VarSpec> specs;
    for (const auto& name : names) {
      specs.push_back({name, std::numeric_limits<std::int32_t>::max(),
                       std::numeric_limits<std::int32_t>::min()});
    }
    std::vector<bool> seen(numStates, false);
    std::string line;
    while (std::getline(*sta, line)) {
      if (line.empty()) continue;
      const auto colon = line.find(':');
      if (colon == std::string::npos) {
        throw std::runtime_error("readTra: malformed .sta line");
      }
      const auto idx = parseInteger(std::string_view(line).substr(0, colon), 0,
                                    std::int64_t{numStates} - 1,
                                    "readTra: .sta state index");
      if (seen[static_cast<std::size_t>(idx)]) {
        throw std::runtime_error("readTra: .sta repeats state " +
                                 std::to_string(idx));
      }
      seen[static_cast<std::size_t>(idx)] = true;
      State& state = states[static_cast<std::size_t>(idx)];
      std::size_t var = 0;
      std::string token;
      for (std::size_t i = colon + 1; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '(' || std::isspace(static_cast<unsigned char>(c))) continue;
        if (c == ',' || c == ')') {
          if (!token.empty()) {
            if (var >= names.size()) {
              throw std::runtime_error("readTra: too many values in .sta");
            }
            state[var] = static_cast<std::int32_t>(
                parseInteger(std::exchange(token, {}),
                             std::numeric_limits<std::int32_t>::min(),
                             std::numeric_limits<std::int32_t>::max(),
                             "readTra: .sta value"));
            ++var;
          }
        } else {
          token.push_back(c);
        }
      }
      if (var != names.size()) {
        throw std::runtime_error("readTra: wrong arity in .sta line");
      }
    }
    const auto missing = std::find(seen.begin(), seen.end(), false);
    if (missing != seen.end()) {
      throw std::runtime_error("readTra: .sta omits state " +
                               std::to_string(missing - seen.begin()));
    }
    for (const State& state : states) {
      for (std::size_t v = 0; v < specs.size(); ++v) {
        specs[v].lo = std::min(specs[v].lo, state[v]);
        specs[v].hi = std::max(specs[v].hi, state[v]);
      }
    }
    // Throws std::invalid_argument when the ranges need more than 64 bits.
    raw.layout = VarLayout(specs);
    raw.keys.reserve(numStates);
    for (const State& state : states) raw.keys.push_back(raw.layout.pack(state));
  } else {
    // No state file: identity state table over one index variable, whose
    // key is its value.
    raw.layout = VarLayout(
        {{"s", 0, static_cast<std::int32_t>(numStates) - 1}});
    raw.keys.resize(numStates);
    std::iota(raw.keys.begin(), raw.keys.end(), std::uint64_t{0});
  }
  return ExplicitDtmc::fromRaw(std::move(raw));
}

std::vector<std::pair<std::string, la::BitVector>> readLab(
    std::istream& lab, std::uint32_t numStates) {
  std::string header;
  if (!std::getline(lab, header)) {
    throw std::runtime_error("readLab: empty stream");
  }
  // header: 0="init" 1="error" ...
  std::vector<std::pair<std::string, la::BitVector>> labels;
  {
    std::istringstream hs(header);
    std::string item;
    while (hs >> item) {
      const auto eq = item.find('=');
      if (eq == std::string::npos || item.size() < eq + 3) {
        throw std::runtime_error("readLab: malformed header item");
      }
      const auto id = static_cast<std::size_t>(
          parseInteger(std::string_view(item).substr(0, eq), 0,
                       std::numeric_limits<std::int64_t>::max(),
                       "readLab: label id"));
      std::string name = item.substr(eq + 1);
      if (name.front() != '"' || name.back() != '"') {
        throw std::runtime_error("readLab: label name not quoted");
      }
      name = name.substr(1, name.size() - 2);
      if (id != labels.size()) {
        throw std::runtime_error("readLab: non-sequential label ids");
      }
      labels.emplace_back(std::move(name), la::BitVector(numStates));
    }
  }
  std::string line;
  while (std::getline(lab, line)) {
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("readLab: malformed state line");
    }
    const auto state = static_cast<std::uint32_t>(
        parseInteger(std::string_view(line).substr(0, colon), 0,
                     std::int64_t{numStates} - 1, "readLab: state index"));
    std::istringstream ls(line.substr(colon + 1));
    std::string id;
    while (ls >> id) {
      const auto label = parseInteger(
          id, 0, static_cast<std::int64_t>(labels.size()) - 1,
          "readLab: label id");
      labels[static_cast<std::size_t>(label)].second.set(state);
    }
  }
  return labels;
}

std::vector<double> readSrew(std::istream& srew, std::uint32_t numStates) {
  std::uint32_t headerStates = 0;
  std::uint64_t nonzero = 0;
  if (!(srew >> headerStates >> nonzero)) {
    throw std::runtime_error("readSrew: malformed header");
  }
  if (headerStates != numStates) {
    throw std::runtime_error("readSrew: state count mismatch");
  }
  std::vector<double> rewards(numStates, 0.0);
  for (std::uint64_t i = 0; i < nonzero; ++i) {
    std::uint32_t state = 0;
    double value = 0.0;
    if (!(srew >> state >> value)) {
      throw std::runtime_error("readSrew: truncated reward list");
    }
    if (state >= numStates) {
      throw std::runtime_error("readSrew: state index out of range");
    }
    rewards[state] = value;
  }
  return rewards;
}

ImportedModel::ImportedModel(ImportedExplicit imported)
    : imported_(std::move(imported)) {}

std::vector<VarSpec> ImportedModel::variables() const {
  return {{"s", 0,
           static_cast<std::int32_t>(imported_.dtmc.numStates()) - 1}};
}

std::vector<State> ImportedModel::initialStates() const {
  std::vector<State> initial;
  const auto& dist = imported_.dtmc.initialDistribution();
  for (std::uint32_t s = 0; s < imported_.dtmc.numStates(); ++s) {
    if (dist[s] > 0.0) initial.push_back({static_cast<std::int32_t>(s)});
  }
  return initial;
}

void ImportedModel::transitions(const State& s, Successors& out) const {
  const std::uint32_t idx = indexOf(s);
  const auto& d = imported_.dtmc;
  State& target = out.scratch(s);
  for (std::uint64_t k = d.rowPtr()[idx]; k < d.rowPtr()[idx + 1]; ++k) {
    target[0] = static_cast<std::int32_t>(d.col()[k]);
    out.add(d.val()[k], target);
  }
  if (d.rowPtr()[idx] == d.rowPtr()[idx + 1]) {
    out.add(1.0, s);  // missing row: absorbing
  }
}

bool ImportedModel::atom(const State& s, std::string_view name) const {
  for (const auto& [labelName, truth] : imported_.labels) {
    if (labelName == name) return truth.get(indexOf(s));
  }
  return false;
}

double ImportedModel::stateReward(const State& s,
                                  std::string_view name) const {
  const std::string_view effective =
      (name == "default") ? std::string_view{} : name;
  for (const auto& [rewardName, values] : imported_.rewards) {
    if (rewardName == effective) return values[indexOf(s)];
  }
  return 0.0;
}

}  // namespace mimostat::dtmc
