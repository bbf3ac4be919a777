// Saturating fixed-point helpers modelling RTL datapath arithmetic.
//
// The paper's DTMC models track RTL registers (path metrics, counters) that
// saturate rather than wrap; these helpers centralise that behaviour so the
// bit-accurate decoder and the DTMC models share identical arithmetic.
#pragma once

#include <cmath>
#include <cstdint>

namespace mimostat::util {

/// Clamp v into [lo, hi].
[[nodiscard]] constexpr std::int32_t clampI32(std::int64_t v, std::int32_t lo,
                                              std::int32_t hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return static_cast<std::int32_t>(v);
}

/// Round-to-nearest quantization of a real magnitude onto [0, cap]
/// (used for branch metrics: |sample - expected| -> small integer).
[[nodiscard]] inline std::int32_t quantizeMagnitude(double magnitude,
                                                    double scale,
                                                    std::int32_t cap) {
  const double scaled = magnitude * scale;
  const auto rounded = static_cast<std::int64_t>(std::llround(scaled));
  return clampI32(rounded, 0, cap);
}

}  // namespace mimostat::util
