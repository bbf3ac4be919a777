#include "comm/rayleigh.hpp"

#include <cmath>

namespace mimostat::comm {

RayleighFading::RayleighFading(const UniformQuantizer& quantizer)
    : quantizer_(quantizer),
      probs_(quantizer_.cellProbabilities(0.0, perDimensionSigma())) {}

double RayleighFading::perDimensionSigma() { return std::sqrt(0.5); }

}  // namespace mimostat::comm
