// Shared hand-written DTMC models for the test suite: explicit matrices
// with closed-form answers, parameterized random chains, and structural
// corner cases.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "la/bit_vector.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace mimostat::test {

/// Hash functor for State vectors (the legacy oracles' state indexes).
struct StateHash {
  std::size_t operator()(const dtmc::State& s) const {
    return static_cast<std::size_t>(
        util::fnv1a(s.data(), s.size() * sizeof(std::int32_t)));
  }
};

/// The two state tables hold the same states at every index (either table
/// may be packed).
inline bool sameStateTables(const dtmc::ExplicitDtmc& a,
                            const dtmc::ExplicitDtmc& b) {
  if (a.numStates() != b.numStates()) return false;
  for (std::uint32_t i = 0; i < a.numStates(); ++i) {
    if (a.state(i) != b.state(i)) return false;
  }
  return true;
}

/// Bridges to the legacy byte-per-state mask representation, the
/// bitwise-identity oracle of the bounded-path and mask tests: any non-zero
/// byte is a set bit.
inline la::BitVector fromBytes(const std::vector<std::uint8_t>& bytes) {
  la::BitVector result(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] != 0) result.set(i);
  }
  return result;
}

inline std::vector<std::uint8_t> toBytes(const la::BitVector& v) {
  std::vector<std::uint8_t> bytes(v.size(), 0);
  v.forEachSetBit([&](std::size_t i) { bytes[i] = 1; });
  return bytes;
}

/// The worst |row sum - 1| over the rows of `d`.
inline double maxRowDeviation(const dtmc::ExplicitDtmc& d) {
  double worst = 0.0;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    double sum = 0.0;
    for (std::uint64_t k = d.rowPtr()[s]; k < d.rowPtr()[s + 1]; ++k) {
      sum += d.val()[k];
    }
    worst = std::max(worst, std::fabs(sum - 1.0));
  }
  return worst;
}

/// DTMC given directly as a dense transition matrix over one variable "s".
/// Optional labels (name -> per-state truth) and per-state default rewards.
class MatrixModel : public dtmc::Model {
 public:
  MatrixModel(std::vector<std::vector<double>> matrix,
              std::vector<std::uint32_t> initial = {0})
      : matrix_(std::move(matrix)), initial_(std::move(initial)) {
    rewards_.assign(matrix_.size(), 0.0);
  }

  /// `truth` holds one entry per state (checked in every build type).
  MatrixModel& withLabel(std::string name, std::vector<std::uint8_t> truth) {
    if (truth.size() != matrix_.size()) {
      throw std::invalid_argument("MatrixModel::withLabel: label '" + name +
                                  "' needs one entry per state");
    }
    labels_.emplace_back(std::move(name), std::move(truth));
    return *this;
  }
  MatrixModel& withRewards(std::vector<double> rewards) {
    rewards_ = std::move(rewards);
    return *this;
  }

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"s", 0, static_cast<std::int32_t>(matrix_.size()) - 1}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    std::vector<dtmc::State> states;
    for (const auto i : initial_) {
      states.push_back({static_cast<std::int32_t>(i)});
    }
    return states;
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    const auto row = static_cast<std::size_t>(s[0]);
    for (std::size_t j = 0; j < matrix_[row].size(); ++j) {
      if (matrix_[row][j] > 0.0) {
        out.add(matrix_[row][j], {static_cast<std::int32_t>(j)});
      }
    }
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    for (const auto& [labelName, truth] : labels_) {
      if (labelName == name) return truth[static_cast<std::size_t>(s[0])] != 0;
    }
    return false;
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view /*name*/) const override {
    return rewards_[static_cast<std::size_t>(s[0])];
  }

 private:
  std::vector<std::vector<double>> matrix_;
  std::vector<std::uint32_t> initial_;
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> labels_;
  std::vector<double> rewards_;
};

/// Two-state chain with P(0->1)=a, P(1->0)=b — closed-form transients.
inline MatrixModel twoStateChain(double a, double b) {
  return MatrixModel({{1.0 - a, a}, {b, 1.0 - b}});
}

/// Deterministic line 0 -> 1 -> ... -> n-1 (absorbing).
inline MatrixModel lineModel(std::uint32_t n) {
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (std::uint32_t i = 0; i + 1 < n; ++i) matrix[i][i + 1] = 1.0;
  matrix[n - 1][n - 1] = 1.0;
  return MatrixModel(std::move(matrix));
}

/// Directed cycle of length n (period n).
inline MatrixModel cycleModel(std::uint32_t n) {
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (std::uint32_t i = 0; i < n; ++i) matrix[i][(i + 1) % n] = 1.0;
  return MatrixModel(std::move(matrix));
}

/// Gambler's ruin on 0..n starting at `start`: win prob p, states 0 and n
/// absorbing. For p = 1/2 the ruin probability from i is 1 - i/n.
inline MatrixModel gamblersRuin(std::uint32_t n, double p,
                                std::uint32_t start) {
  std::vector<std::vector<double>> matrix(n + 1,
                                          std::vector<double>(n + 1, 0.0));
  matrix[0][0] = 1.0;
  matrix[n][n] = 1.0;
  for (std::uint32_t i = 1; i < n; ++i) {
    matrix[i][i + 1] = p;
    matrix[i][i - 1] = 1.0 - p;
  }
  return MatrixModel(std::move(matrix), {start});
}

/// Drift on levels 0..4: up with probability 0.3, down with 0.7, held at
/// both ends (aperiodic through those self-loops); reward = the level.
inline MatrixModel driftChain() {
  MatrixModel model({{0.7, 0.3, 0, 0, 0},
                     {0.7, 0, 0.3, 0, 0},
                     {0, 0.7, 0, 0.3, 0},
                     {0, 0, 0.7, 0, 0.3},
                     {0, 0, 0, 0.7, 0.3}});
  model.withRewards({0, 1, 2, 3, 4});
  return model;
}

/// Random stochastic matrix with the given fan-out per row; strictly
/// positive probabilities; random labels/rewards derived from the seed.
inline MatrixModel randomModel(std::uint32_t n, std::uint32_t fanout,
                               std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (std::uint32_t i = 0; i < n; ++i) {
    double total = 0.0;
    for (std::uint32_t k = 0; k < fanout; ++k) {
      const auto j = static_cast<std::uint32_t>(rng.nextBounded(n));
      const double w = rng.nextDouble() + 0.05;
      matrix[i][j] += w;
      total += w;
    }
    for (auto& v : matrix[i]) v /= total;
  }
  std::vector<std::uint8_t> target(n, 0);
  std::vector<double> rewards(n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    target[i] = rng.nextDouble() < 0.3 ? 1 : 0;
    rewards[i] = target[i] ? 1.0 : 0.0;
  }
  MatrixModel model(std::move(matrix));
  model.withLabel("target", std::move(target)).withRewards(std::move(rewards));
  return model;
}

/// Three 31-bit variables (93 bits): no VarLayout holds them, so every
/// explorer and sampler rejects the model. States with a >= 40 are dead
/// ends.
class WideModel : public dtmc::Model {
 public:
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"a", 0, 0x7FFFFFFF}, {"b", -0x40000000, 0x3FFFFFFF},
            {"c", 0, 0x7FFFFFFF}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{5, 0, 1}, {0, -7, 0}, {5, 0, 1}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    if (s[0] >= 40) return;  // dead ends
    out.add(0.5, {s[0] + 3, -s[1], s[2]});
    out.add(0.25, {s[0] + 1, s[1] - 1, 0x7FFFFFFF - s[2]});
    out.add(0.25, {s[0] + 3, -s[1], s[2]});
  }
};

/// k identical independent sub-chains observed through a symmetric reward —
/// a toy model with a block symmetry, used by the symmetry tests.
/// Variables: c0..c_{k-1}, each a two-state chain (P(0->1)=a, P(1->0)=b);
/// reward = number of components in state 1.
class SymmetricBanksModel : public dtmc::Model {
 public:
  SymmetricBanksModel(int k, double a, double b) : k_(k), a_(a), b_(b) {}

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    std::vector<dtmc::VarSpec> vars;
    for (int i = 0; i < k_; ++i) {
      vars.push_back({"c" + std::to_string(i), 0, 1});
    }
    return vars;
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {dtmc::State(static_cast<std::size_t>(k_), 0)};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    // Product of independent per-component flips: subset m flips component
    // i when bit k-1-i is set, so the subsets come in the order of a
    // component-by-component expansion (c0 outermost, stay before flip).
    const auto k = static_cast<std::size_t>(k_);
    dtmc::State& target = out.scratch(s);
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << k); ++m) {
      double prob = 1.0;
      for (std::size_t i = 0; i < k; ++i) {
        const bool flips = ((m >> (k - 1 - i)) & 1) != 0;
        const double flip = s[i] == 0 ? a_ : b_;
        prob *= flips ? flip : 1.0 - flip;
        target[i] = flips ? 1 - s[i] : s[i];
      }
      out.add(prob, target);
    }
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view /*name*/) const override {
    double count = 0.0;
    for (const auto v : s) count += v;
    return count;
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    if (name == "any") {
      for (const auto v : s) {
        if (v != 0) return true;
      }
    }
    return false;
  }

 private:
  int k_;
  double a_;
  double b_;
};

}  // namespace mimostat::test
