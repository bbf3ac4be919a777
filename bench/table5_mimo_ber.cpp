// Table V reproduction: BER for the MIMO ML detectors (paper, RI=3):
//   1x2 (SNR  8 dB): 0.277 / 0.291 / 0.296 for T=5/10/20
//   1x4 (SNR 12 dB): 1.08e-5 (constant in T)
// plus the paper's §V simulation comparison: 1e7 steps were needed to
// estimate the 1x4 BER (1.07e-5 observed), and 1e5 steps saw *zero* errors
// — simulation cannot resolve low BERs that the model checker computes
// exactly in seconds.
//
// Exits 1 when the shape check or the simulation cross-check prints NO.
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "engine/engine.hpp"
#include "engine_rows.hpp"
#include "lump/symmetry.hpp"
#include "mimo/model.hpp"
#include "mimo/sim.hpp"
#include "stats/intervals.hpp"

namespace {

double runDetector(mimostat::engine::AnalysisEngine& engine, const char* name,
                   const mimostat::mimo::MimoParams& params) {
  using namespace mimostat;
  const mimo::MimoDetectorModel model(params);
  const lump::SymmetryReducedModel reduced(model, model.symmetryBlocks());
  // The three horizons share one transient sweep.
  const auto rows = bench::checkRows(
      engine, reduced, {"R=? [ I=5 ]", "R=? [ I=10 ]", "R=? [ I=20 ]"});

  std::printf("%s: %llu states (symmetry-reduced), RI=%u, built in %.2fs\n",
              name, static_cast<unsigned long long>(rows[0].states),
              rows[0].reachabilityIterations, rows[0].buildSeconds);
  std::printf("  %-6s %-14s %-10s\n", "T", "BER (P2)", "time(s)");
  const std::uint64_t ts[3] = {5, 10, 20};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("  %-6llu %-14.6g %-10.3f\n",
                static_cast<unsigned long long>(ts[i]), rows[i].value,
                rows[i].checkSeconds);
  }
  return rows.back().value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mimostat;

  // Full-fidelity mode (--full) runs the 1e7-step simulation of the paper;
  // the default keeps the bench suite fast with 1e6 steps.
  const bool full = argc > 1 && std::string_view(argv[1]) == "--full";
  const std::uint64_t longRun = full ? 10'000'000ULL : 1'000'000ULL;

  std::printf("=== Table V: BER for MIMO detectors ===\n");
  std::printf("(paper: 1x2 ~0.28-0.30; 1x4 1.08e-5; RI=3)\n\n");

  engine::AnalysisEngine engine;
  const double ber1x2 = runDetector(engine, "1x2", mimo::mimo1x2Params());
  const double ber1x4 = runDetector(engine, "1x4", mimo::mimo1x4Params());

  const bool shapeOk = ber1x4 < 0.01 * ber1x2;
  std::printf("\nShape check: BER(1x4) << BER(1x2): %s (%.3g vs %.3g)\n",
              shapeOk ? "yes" : "NO", ber1x4, ber1x2);

  // --- Simulation comparison (paper §V) ---
  std::printf("\n--- Monte-Carlo comparison (1x4 detector) ---\n");
  const auto params = mimo::mimo1x4Params();

  const auto shortRun = mimo::simulateQuantized(params, 100'000, 11);
  const auto shortInterval = shortRun.bitErrors.clopperPearson(0.95);
  std::printf("1e5 steps: %llu errors observed, BER in [%.2e, %.2e] "
              "(95%% CP) — %s\n",
              static_cast<unsigned long long>(shortRun.bitErrors.successes()),
              shortInterval.low, shortInterval.high,
              shortRun.bitErrors.successes() == 0
                  ? "zero errors, BER unresolved (paper's observation)"
                  : "few errors, wide interval");

  const auto longSim = mimo::simulateQuantized(params, longRun, 13);
  const auto longInterval = longSim.bitErrors.wilson(0.95);
  const bool inside = longInterval.contains(ber1x4);
  std::printf("%.0e steps: BER_sim = %.3e [%.3e, %.3e] in %.1fs; "
              "model-checked %.3e inside: %s\n",
              static_cast<double>(longRun), longSim.bitErrors.estimate(),
              longInterval.low, longInterval.high, longSim.seconds, ber1x4,
              inside ? "yes" : "NO");
  std::printf("Expected steps per observed error at this BER: %.1e\n",
              ber1x4 > 0 ? 1.0 / ber1x4 : 0.0);
  return shapeOk && inside ? 0 : 1;
}
