// Sampling vs exact backend cost as the state space grows — the engine-level
// version of the paper's exact-vs-statistical complexity trade-off. The
// exact backend pays to build and sweep the full reachable state space; the
// sampling backend's cost is paths x horizon, independent of state count.
// Past the state-budget crossover, Backend::kAuto switches to sampling.
//
// Also exercises every sampled property form (P=?, P>=theta via SPRT,
// R=?[I=T], R=?[C<=T]) so the two backends can be compared on the same
// request.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "util/timer.hpp"

namespace {

using namespace mimostat;

/// Sparse lazy random walk on 0..n-1 (reflecting ends), declared directly as
/// a transition function so the state count scales without materializing a
/// matrix. Reward: indicator of the right half (mean -> 1/2 mixing proxy).
class WalkModel : public dtmc::Model {
 public:
  explicit WalkModel(std::int32_t n) : n_(n) {}

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"s", 0, n_ - 1}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{n_ / 2}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    const std::int32_t x = s[0];
    out.add(0.5, {x});  // lazy
    if (x > 0) out.add(0.25, {x - 1});
    if (x < n_ - 1) out.add(0.25, {x + 1});
    if (x == 0) out.add(0.25, {0});
    if (x == n_ - 1) out.add(0.25, {n_ - 1});
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view /*name*/) const override {
    return s[0] >= n_ / 2 ? 1.0 : 0.0;
  }

 private:
  std::int32_t n_;
};

}  // namespace

int main() {
  using namespace mimostat;

  std::printf("=== SMC backend vs exact backend (lazy walk, horizon 200) ===\n\n");
  engine::AnalysisEngine eng;

  const std::vector<std::string> properties = {
      "P=? [ F<=200 s=0 ]",
      "R=? [ I=200 ]",
      "R=? [ C<=200 ]",
  };

  std::printf("%-10s %-12s %-12s %-10s %-28s\n", "states", "exact(s)",
              "sampling(s)", "speedup", "max CI-normalized error");
  for (const std::int32_t n : {1 << 8, 1 << 11, 1 << 14, 1 << 17, 1 << 19}) {
    const WalkModel model(n);

    engine::AnalysisRequest exact;
    exact.model = &model;
    exact.properties = properties;
    exact.options.backend = engine::Backend::kExact;

    engine::AnalysisRequest sampled = exact;
    sampled.options.backend = engine::Backend::kSampling;
    sampled.options.smc.paths = 10'000;
    sampled.options.smc.seed = 17;

    util::Stopwatch exactTimer;
    const auto exactResponse = eng.analyze(exact);
    const double exactSeconds = exactTimer.elapsedSeconds();
    eng.clearModelCache();  // charge every round the full build cost

    util::Stopwatch sampleTimer;
    const auto sampledResponse = eng.analyze(sampled);
    const double sampleSeconds = sampleTimer.elapsedSeconds();

    // |exact - estimate| in units of the 95% CI half-width: ~1 means the
    // estimator is honest; >>1 would be a bug, not noise.
    double worst = 0.0;
    for (std::size_t p = 0; p < properties.size(); ++p) {
      const double diff = std::abs(exactResponse.results[p].value -
                                   sampledResponse.results[p].value);
      const auto& ci = sampledResponse.results[p].interval95;
      const double half = ci ? (ci->high - ci->low) / 2.0 : 1.0;
      worst = std::max(worst, diff / std::max(half, 1e-12));
    }
    std::printf("%-10d %-12.3f %-12.3f %-10.2f %-12.2e\n", n, exactSeconds,
                sampleSeconds, exactSeconds / sampleSeconds, worst);
  }

  std::printf("\nSPRT decisions with alpha=beta=0.01 (true P(F<=200 s=0) "
              "depends on n):\n");
  std::printf("%-10s %-26s %-10s %-12s %-8s\n", "states", "claim", "verdict",
              "paths used", "time(s)");
  for (const std::int32_t n : {1 << 8, 1 << 14}) {
    const WalkModel model(n);
    for (const char* claim :
         {"P>=0.05 [ F<=200 s=0 ]", "P<=0.9 [ F<=200 s=0 ]"}) {
      engine::AnalysisRequest request;
      request.model = &model;
      request.properties = {claim};
      request.options.backend = engine::Backend::kSampling;
      request.options.sprt.alpha = 0.01;
      request.options.sprt.beta = 0.01;
      const auto response = eng.analyze(request);
      const auto& result = response.results[0];
      std::printf("%-10d %-26s %-10s %-12llu %-8.3f\n", n, claim,
                  result.sprt && result.sprt->decided
                      ? (result.satisfied ? "holds" : "fails")
                      : "undecided",
                  static_cast<unsigned long long>(
                      result.sprt ? result.sprt->pathsUsed : 0),
                  result.checkSeconds);
    }
  }

  std::printf("\nBackend::kAuto picks exact below the state budget and "
              "sampling above it:\n");
  for (const std::int32_t n : {1 << 8, 1 << 19}) {
    const WalkModel model(n);
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = {"R=? [ C<=200 ]"};
    request.options.stateBudget = 1 << 16;
    const auto response = eng.analyze(request);
    std::printf("  n=%-8d backend=%s\n", n,
                engine::backendName(response.backend));
  }
  return 0;
}
