#include "comm/rayleigh.hpp"

#include <cmath>

namespace mimostat::comm {

RayleighFading::RayleighFading(const UniformQuantizer& quantizer)
    : quantizer_(quantizer),
      probs_(quantizer_.cellProbabilities(0.0, perDimensionSigma())) {}

double RayleighFading::perDimensionSigma() { return std::sqrt(0.5); }

double RayleighFading::sampleAnalog(util::Xoshiro256& rng) const {
  return perDimensionSigma() * rng.nextGaussian();
}

}  // namespace mimostat::comm
