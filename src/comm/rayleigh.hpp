// Flat Rayleigh fading (paper §IV): channel coefficient h ~ CN(0,1), i.e.
// real and imaginary parts are independent N(0, 1/2). For the DTMC models
// each real part is quantized; this class provides the exact cell
// probabilities of the fading distribution (the Monte-Carlo baseline draws
// the analog parts as perDimensionSigma() * N(0, 1) itself).
#pragma once

#include <vector>

#include "comm/quantizer.hpp"

namespace mimostat::comm {

class RayleighFading {
 public:
  /// @param quantizer quantizer applied to each real-valued part of h
  explicit RayleighFading(const UniformQuantizer& quantizer);

  [[nodiscard]] const UniformQuantizer& quantizer() const { return quantizer_; }

  /// Per-real-dimension standard deviation (sqrt(1/2)).
  [[nodiscard]] static double perDimensionSigma();

  /// P(quantized h-part = cell) for all cells.
  [[nodiscard]] const std::vector<double>& cellProbabilities() const {
    return probs_;
  }

 private:
  UniformQuantizer quantizer_;
  std::vector<double> probs_;
};

}  // namespace mimostat::comm
