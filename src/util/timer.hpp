// Wall-clock stopwatch (benches, tests, obs::).
//
// Library code in src/ should time phases through obs::Span / the metrics
// registry instead: the `raw-wallclock` determinism lint bans direct
// Stopwatch / std::chrono clock use in src/ outside src/util/ + src/obs/,
// so wall-clock can only reach diagnostics, never exported values.
#pragma once

#include <chrono>

namespace mimostat::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double elapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mimostat::util
