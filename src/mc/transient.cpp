#include "mc/transient.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "la/spmv.hpp"

namespace mimostat::mc {

TransientSweep::TransientSweep(const dtmc::ExplicitDtmc& dtmc, la::Exec exec)
    : dtmc_(dtmc),
      exec_(std::move(exec)),
      x_(dtmc.initialDistribution()),
      scratch_(x_.size()) {}

void TransientSweep::advance() {
  if (!stationary_) {
    // lint:allow(transient-step: the one forward-propagation step in mc/)
    la::spmm(dtmc_.matrix(), x_, 1, scratch_, exec_, la::Side::kLeft);
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
  assert(reward.size() == x_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x_.size(); ++i) acc += x_[i] * reward[i];
  return acc;
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
