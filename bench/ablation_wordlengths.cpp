// RTL word-length design sweep — the paper's motivating workflow: choose
// quantizer and path-metric register widths that meet a BER budget with
// the least area, with each candidate's BER computed *exactly* by model
// checking instead of lengthy simulation.
//
// Shapes: more ADC levels and deeper path metrics monotonically improve
// BER until the channel noise floor dominates; state count (a proxy for
// verification cost, and loosely for area) grows with every width.
//
// Exits non-zero when a candidate's property fails to check.
#include <cstdio>

#include "engine/engine.hpp"
#include "engine_rows.hpp"
#include "viterbi/model_reduced.hpp"

namespace {

void sweepRow(mimostat::engine::AnalysisEngine& engine,
              const mimostat::viterbi::ViterbiParams& params) {
  using namespace mimostat;
  const viterbi::ReducedViterbiModel model(params);
  const auto p2 = bench::checkRows(engine, model, {"R=? [ I=400 ]"})[0];
  std::printf("%-8d %-8d %-8d %10llu %14.8f %10.3f\n", params.quantLevels,
              params.pmCap, params.bmCap,
              static_cast<unsigned long long>(p2.states), p2.value,
              p2.totalSeconds());
}

}  // namespace

int main() {
  using namespace mimostat;

  std::printf("=== Word-length exploration: Viterbi @ 6 dB, L=5 ===\n");
  std::printf("%-8s %-8s %-8s %10s %14s %10s\n", "ADC", "pmCap", "bmCap",
              "states", "BER (exact)", "time(s)");

  engine::AnalysisEngine engine;

  viterbi::ViterbiParams base;
  base.tracebackLength = 5;
  base.snrDb = 6.0;

  std::printf("-- ADC resolution sweep --\n");
  for (const int levels : {2, 4, 8, 16}) {
    auto params = base;
    params.quantLevels = levels;
    sweepRow(engine, params);
  }

  std::printf("-- path-metric register sweep --\n");
  for (const int pmCap : {2, 4, 6, 10, 14}) {
    auto params = base;
    params.pmCap = pmCap;
    params.bmCap = std::min(params.bmCap, pmCap);
    sweepRow(engine, params);
  }

  std::printf("-- branch-metric saturation sweep --\n");
  for (const int bmCap : {1, 2, 4, 6}) {
    auto params = base;
    params.bmCap = bmCap;
    sweepRow(engine, params);
  }

  std::printf("\nReading: pick the smallest widths on each axis whose BER "
              "is within budget —\neach row is an exact guarantee, so no "
              "safety margin for simulation noise is needed.\n");
  return 0;
}
