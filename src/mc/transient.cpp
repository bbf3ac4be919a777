#include "mc/transient.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "la/spmv.hpp"

namespace mimostat::mc {

namespace {
double dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}
}  // namespace

TransientSweep::TransientSweep(const dtmc::ExplicitDtmc& dtmc, la::Exec exec)
    : dtmc_(dtmc),
      exec_(std::move(exec)),
      x_(dtmc.initialDistribution()),
      scratch_(x_.size()) {}

TransientSweep::TransientSweep(const dtmc::ExplicitDtmc& dtmc,
                               std::vector<std::vector<double>> starts,
                               la::Exec exec)
    : dtmc_(dtmc), exec_(std::move(exec)), vectors_(starts.size()) {
  if (starts.empty()) {
    throw std::invalid_argument("TransientSweep: no start distributions");
  }
  const std::size_t n = dtmc.numStates();
  x_.resize(n * vectors_);
  for (std::size_t j = 0; j < vectors_; ++j) {
    if (starts[j].size() != n) {
      throw std::invalid_argument(
          "TransientSweep: start distribution size mismatch");
    }
    for (std::size_t s = 0; s < n; ++s) x_[s * vectors_ + j] = starts[j][s];
  }
  scratch_.resize(x_.size());
}

const std::vector<double>& TransientSweep::distribution() const {
  if (vectors_ != 1) {
    throw std::logic_error(
        "TransientSweep::distribution(): multi-vector sweep; use "
        "distributionAt(i)");
  }
  return x_;
}

std::vector<double> TransientSweep::distributionAt(std::size_t i) const {
  if (i >= vectors_) {
    throw std::out_of_range("TransientSweep::distributionAt: vector index " +
                            std::to_string(i) + " of " +
                            std::to_string(vectors_));
  }
  const std::size_t n = dtmc_.numStates();
  std::vector<double> out(n);
  for (std::size_t s = 0; s < n; ++s) out[s] = x_[s * vectors_ + i];
  return out;
}

void TransientSweep::advance() {
  if (!stationary_) {
    if (vectors_ == 1) {
      // lint:allow(transient-step: the one forward-propagation step in mc/)
      la::spmvLeft(dtmc_.matrix(), x_, scratch_, exec_);
    } else {
      // lint:allow(transient-step: the one forward-propagation step in mc/)
      la::spmmLeft(dtmc_.matrix(), x_, vectors_, scratch_, exec_);
    }
    ++multiplies_;
    // Exact fixed point: the next multiply would see the same input bits
    // and so return them again, forever.
    stationary_ = std::memcmp(x_.data(), scratch_.data(),
                              x_.size() * sizeof(double)) == 0;
    x_.swap(scratch_);
  }
  ++step_;
}

void TransientSweep::advanceTo(std::uint64_t step) {
  if (step < step_) {
    throw std::invalid_argument("TransientSweep: cannot rewind from step " +
                                std::to_string(step_) + " to " +
                                std::to_string(step));
  }
  while (step_ < step && !stationary_) advance();
  step_ = step;
}

double TransientSweep::expectedReward(const std::vector<double>& reward) const {
  if (vectors_ != 1) {
    throw std::logic_error(
        "TransientSweep::expectedReward(): multi-vector sweep; use "
        "expectedRewardAt(i, reward)");
  }
  return dot(x_, reward);
}

double TransientSweep::expectedRewardAt(std::size_t i,
                                        const std::vector<double>& reward) const {
  if (i >= vectors_) {
    throw std::out_of_range("TransientSweep::expectedRewardAt: vector index " +
                            std::to_string(i) + " of " +
                            std::to_string(vectors_));
  }
  assert(reward.size() * vectors_ == x_.size());
  double acc = 0.0;
  for (std::size_t s = 0; s < reward.size(); ++s) {
    acc += x_[s * vectors_ + i] * reward[s];
  }
  return acc;
}

std::vector<double> instantaneousRewardAtHorizons(
    const dtmc::ExplicitDtmc& dtmc, const std::vector<double>& reward,
    const std::vector<std::uint64_t>& horizons, const la::Exec& exec) {
  std::vector<std::size_t> order(horizons.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return horizons[a] < horizons[b];
  });

  std::vector<double> values(horizons.size());
  TransientSweep sweep(dtmc, exec);
  for (const std::size_t idx : order) {
    sweep.advanceTo(horizons[idx]);
    values[idx] = sweep.expectedReward(reward);
  }
  return values;
}

std::vector<double> transientDistribution(const dtmc::ExplicitDtmc& dtmc,
                                          std::uint64_t steps,
                                          const la::Exec& exec) {
  TransientSweep sweep(dtmc, exec);
  sweep.advanceTo(steps);
  return sweep.distribution();
}

double instantaneousReward(const dtmc::ExplicitDtmc& dtmc,
                           const std::vector<double>& reward,
                           std::uint64_t steps, const la::Exec& exec) {
  return dot(transientDistribution(dtmc, steps, exec), reward);
}

double cumulativeReward(const dtmc::ExplicitDtmc& dtmc,
                        const std::vector<double>& reward,
                        std::uint64_t steps, const la::Exec& exec) {
  TransientSweep sweep(dtmc, exec);
  double total = 0.0;
  double value = 0.0;
  for (std::uint64_t t = 0; t < steps; ++t) {
    // A stationary pi_t is the pi_{t-1} this value was computed from.
    if (t == 0 || !sweep.stationary()) value = sweep.expectedReward(reward);
    total += value;
    if (t + 1 < steps) sweep.advance();
  }
  return total;
}

std::vector<double> instantaneousRewardSeries(const dtmc::ExplicitDtmc& dtmc,
                                              const std::vector<double>& reward,
                                              std::uint64_t steps,
                                              const la::Exec& exec) {
  std::vector<double> series;
  series.reserve(steps + 1);
  TransientSweep sweep(dtmc, exec);
  series.push_back(sweep.expectedReward(reward));
  for (std::uint64_t t = 0; t < steps; ++t) {
    sweep.advance();
    series.push_back(sweep.stationary() ? series.back()
                                        : sweep.expectedReward(reward));
  }
  return series;
}

SteadyDetection detectRewardSteadyState(const dtmc::ExplicitDtmc& dtmc,
                                        const std::vector<double>& reward,
                                        double tolerance, std::uint64_t window,
                                        std::uint64_t maxSteps,
                                        const la::Exec& exec) {
  assert(window >= 1);
  SteadyDetection result;
  TransientSweep sweep(dtmc, exec);
  double value = sweep.expectedReward(reward);
  result.value = value;
  double windowMin = value;
  double windowMax = value;
  std::uint64_t stable = 0;
  for (std::uint64_t t = 1; t <= maxSteps; ++t) {
    sweep.advance();
    if (!sweep.stationary()) value = sweep.expectedReward(reward);
    if (std::fabs(value - windowMin) <= tolerance &&
        std::fabs(value - windowMax) <= tolerance) {
      ++stable;
      windowMin = std::min(windowMin, value);
      windowMax = std::max(windowMax, value);
      if (stable >= window) {
        result.converged = true;
        result.step = t;
        result.value = value;
        return result;
      }
    } else {
      stable = 0;
      windowMin = value;
      windowMax = value;
    }
    result.step = t;
    result.value = value;
  }
  return result;
}

}  // namespace mimostat::mc
