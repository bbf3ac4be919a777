// Bring-your-own design: write an RTL block as a small dtmc::Model, check
// its performance metrics, and scale it out to several lanes — the paper's
// methodology applied to a design the library has never seen.
//
// The design here: a serial link retry buffer. Each cycle a word arrives
// and is corrupted with probability pErr; corrupted words are retried up
// to R times before being dropped. We ask for the steady-state drop rate
// (a P2-style metric), the probability of a drop-free window (P1-style),
// and the expected cycles until the first drop (an R=?[F ...] query).
//
// The three questions (single lane, its "cycles" reward, four lanes clocked
// together) are three AnalysisRequests answered concurrently by one engine.
// The program exits 1 when the four-lane drop rate is not four times the
// single lane's.
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "dtmc/model.hpp"
#include "engine/engine.hpp"

namespace {

using namespace mimostat;

constexpr double kErr = 0.2;  // per-transfer corruption probability
constexpr int kRetries = 3;   // retry budget R

/// `lanes` independent retry buffers clocked together. Lane i holds
/// tries_i in [0..R] (retries consumed by the in-flight word) and
/// dropped_i in [0..1] (this cycle's word was dropped). The default reward
/// counts the lanes dropping this cycle; "cycles" is 1 in every state.
class RetryBufferModel : public dtmc::Model {
 public:
  explicit RetryBufferModel(int lanes) : lanes_(lanes) {}

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    std::vector<dtmc::VarSpec> vars;
    for (int i = 0; i < lanes_; ++i) {
      vars.push_back({"tries" + std::to_string(i), 0, kRetries});
      vars.push_back({"dropped" + std::to_string(i), 0, 1});
    }
    return vars;
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {dtmc::State(static_cast<std::size_t>(2 * lanes_), 0)};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    // Subset m holds the lanes whose word is corrupted this cycle. Success
    // clears the counter; corruption consumes a retry, or drops the word
    // when none is left.
    dtmc::State& target = out.scratch(s);
    for (unsigned m = 0; m < (1u << lanes_); ++m) {
      double prob = 1.0;
      for (int i = 0; i < lanes_; ++i) {
        const bool corrupt = ((m >> i) & 1u) != 0;
        const bool lastTry = s[2 * i] == kRetries;
        prob *= corrupt ? kErr : 1.0 - kErr;
        target[2 * i] = corrupt && !lastTry ? s[2 * i] + 1 : 0;
        target[2 * i + 1] = corrupt && lastTry ? 1 : 0;
      }
      out.add(prob, target);
    }
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    return name == "drop" && stateReward(s, "") > 0.0;
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override {
    if (name == "cycles") return 1.0;
    double dropped = 0.0;
    for (int i = 0; i < lanes_; ++i) dropped += s[2 * i + 1];
    return dropped;
  }

 private:
  int lanes_;
};

}  // namespace

int main() {
  const RetryBufferModel lane(1);
  const RetryBufferModel fourLanes(4);

  engine::AnalysisEngine engine;
  std::vector<engine::AnalysisRequest> requests(3);
  requests[0].model = &lane;
  requests[0].properties = {"R=? [ I=200 ]", "P=? [ G<=100 !\"drop\" ]"};
  requests[1].model = &lane;
  requests[1].properties = {"R{\"cycles\"}=? [ F \"drop\" ]"};
  requests[2].model = &fourLanes;
  requests[2].properties = {"R=? [ I=200 ]"};
  const auto responses = engine.analyzeAll(requests);

  std::printf("Retry-buffer model: %llu states, RI=%u\n\n",
              static_cast<unsigned long long>(responses[0].states),
              responses[0].reachabilityIterations);

  const double dropRate = responses[0].results[0].value;
  std::printf("Steady-state drop rate (P2-style):        %.6g\n", dropRate);
  std::printf("P(no drop in a 100-cycle window):         %.6g\n",
              responses[0].results[1].value);
  std::printf("Expected cycles until the first drop:     %.4g\n\n",
              responses[1].results[0].value);

  // Scale out: four independent lanes clocked together; the aggregate
  // reward is the expected number of lanes dropping per cycle.
  const double aggregate = responses[2].results[0].value;
  const bool fourTimes = std::abs(aggregate - 4.0 * dropRate) < 1e-9;
  std::printf("4-lane composition: %llu states; expected drops/cycle %.6g "
              "(= 4x single lane: %s)\n",
              static_cast<unsigned long long>(responses[2].states), aggregate,
              fourTimes ? "yes" : "NO");
  std::printf("\nThe whole pipeline — builder, reductions, pCTL checker, "
              "engine — ran on a design\ndefined entirely in this file.\n");
  return fourTimes ? 0 : 1;
}
