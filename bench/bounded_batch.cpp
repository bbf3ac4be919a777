// bench_bounded_batch — per-formula vs planned/batched bounded-PCTL
// evaluation.
//
// k bounded-path formulas (F<=T at spread targets, with repeated bodies at
// two thresholds every fourth formula) are checked against one random
// chain two ways:
//
//   1. per-formula: the verbatim pre-refactor mc::bounded backward loop,
//      one full matrix traversal per step per formula (sum of bounds
//      traversals in total);
//   2. planned/batched: one engine request — pctl::buildPlan compiles the
//      set into columns of ONE masked SpMM traversal (masked la::spmm), so
//      the whole group costs max(bounds) traversals (~1 per step instead
//      of k).
//
// Values are asserted bitwise identical (max|diff| EXACTLY 0.0 — the la::
// contract is bit-identity, not tolerance) and the engine's plan stats are
// asserted to match the arithmetic (traversalsSaved == sum - max, and the
// packed la::BitVector mask table at least 4x under its byte-per-state
// equivalent — ~8x in practice); the process exits 1 on any violation
// (this is the ctest smoke). `--csv <path>` writes the measurements for
// the CI artifact.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/model.hpp"
#include "engine/engine.hpp"
#include "mc/checker.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace {

using namespace mimostat;

struct Config {
  std::uint32_t states = 60'000;
  std::uint32_t fanout = 6;
  std::uint64_t steps = 40;   // largest bound
  std::size_t maxK = 16;
  const char* csvPath = nullptr;
};

/// Random sparse chain as a dtmc::Model: variable "s" in [0, n), each state
/// hops to s+1 (connectivity) plus fanout-1 hash-derived targets.
/// transitions() is a pure function of the state, as the builder requires.
class RandomChainModel : public dtmc::Model {
 public:
  RandomChainModel(std::uint32_t n, std::uint32_t fanout)
      : n_(n), fanout_(fanout) {}

  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override {
    constexpr std::uint64_t kFingerprintTag = 0x52616E6443686E00ull;
    return util::hashCombineInt(util::hashCombineInt(kFingerprintTag, n_),
                                fanout_);
  }

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"s", 0, static_cast<std::int32_t>(n_) - 1}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {dtmc::State{0}};
  }
  void transitions(const dtmc::State& s,
                   dtmc::Successors& out) const override {
    const auto u = static_cast<std::uint32_t>(s[0]);
    double total = 0.0;
    std::vector<std::pair<std::uint32_t, double>> row;
    for (std::uint32_t k = 0; k < fanout_; ++k) {
      const std::uint64_t h =
          util::mix64((static_cast<std::uint64_t>(u) << 20) | k);
      const std::uint32_t target =
          k == 0 ? (u + 1) % n_ : static_cast<std::uint32_t>(h % n_);
      const double w = 0.05 + static_cast<double>(h >> 40) / (1 << 24);
      row.emplace_back(target, w);
      total += w;
    }
    for (const auto& [target, w] : row) {
      out.add(w / total, dtmc::State{static_cast<std::int32_t>(target)});
    }
  }

 private:
  std::uint32_t n_;
  std::uint32_t fanout_;
};

/// The pre-refactor per-formula bounded-until loop (phi = true), verbatim —
/// the per-formula reference the planned path must reproduce bit for bit.
std::vector<double> legacyBoundedFinally(const dtmc::ExplicitDtmc& dtmc,
                                         const std::vector<std::uint8_t>& psi,
                                         std::uint64_t bound) {
  const std::uint32_t n = dtmc.numStates();
  std::vector<double> x(n);
  for (std::uint32_t s = 0; s < n; ++s) x[s] = psi[s] ? 1.0 : 0.0;
  std::vector<double> next(n);
  for (std::uint64_t j = 0; j < bound; ++j) {
    for (std::uint32_t s = 0; s < n; ++s) {
      if (psi[s]) {
        next[s] = 1.0;
      } else {
        double acc = 0.0;
        for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1];
             ++k) {
          acc += dtmc.val()[k] * x[dtmc.col()[k]];
        }
        next[s] = acc;
      }
    }
    x.swap(next);
  }
  return x;
}

struct FormulaSpec {
  std::int32_t target = 0;
  std::uint64_t bound = 0;
};

/// k formulas: spread targets; every fourth repeats the previous body at a
/// shorter threshold, so the plan's column dedup is exercised too.
std::vector<FormulaSpec> makeFormulas(const Config& config, std::size_t k) {
  std::vector<FormulaSpec> specs;
  for (std::size_t j = 0; j < k; ++j) {
    FormulaSpec spec;
    if (j % 4 == 3 && j > 0) {
      spec.target = specs[j - 1].target;  // shared body, new threshold
      spec.bound = std::max<std::uint64_t>(1, specs[j - 1].bound / 2);
    } else {
      spec.target = static_cast<std::int32_t>(
          (config.states / (k + 1)) * (j + 1));
      spec.bound = config.steps - (j % 4) * (config.steps / 8);
    }
    specs.push_back(spec);
  }
  return specs;
}

struct Row {
  std::size_t k = 0;
  double perFormulaSeconds = 0.0;
  double batchedSeconds = 0.0;
  std::uint64_t traversalsSaved = 0;
  std::uint64_t perFormulaTraversals = 0;
  std::uint64_t batchedTraversals = 0;
  /// Plan mask-table footprint: packed la::BitVector words vs what the
  /// legacy byte-per-state masks would have held (~8x more).
  std::uint64_t maskBytesPacked = 0;
  std::uint64_t maskBytesByte = 0;
  double maxDiff = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const auto intArg = [&](const char* flag, auto& out) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        out = static_cast<std::remove_reference_t<decltype(out)>>(
            std::strtoull(argv[++i], nullptr, 10));
        return true;
      }
      return false;
    };
    if (intArg("--states", config.states) ||
        intArg("--fanout", config.fanout) || intArg("--steps", config.steps) ||
        intArg("--kmax", config.maxK)) {
      continue;
    }
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      config.csvPath = argv[++i];
      continue;
    }
    std::fprintf(stderr,
                 "usage: bench_bounded_batch [--states N] [--fanout F] "
                 "[--steps T] [--kmax K] [--csv path]\n");
    return 2;
  }

  std::printf("=== bench_bounded_batch: per-formula vs planned/batched "
              "bounded PCTL ===\n");
  const RandomChainModel model(config.states, config.fanout);
  engine::AnalysisEngine engine;
  const auto built = engine.ensureBuilt(model);
  const dtmc::ExplicitDtmc& d = built->dtmc;
  std::printf("chain: %u states, %llu transitions, bounds up to %llu\n",
              d.numStates(),
              static_cast<unsigned long long>(d.numTransitions()),
              static_cast<unsigned long long>(config.steps));
  std::printf("(single-core hosts mostly demonstrate the bit-identity and\n"
              " traversal-count contract; the wall-clock win needs the\n"
              " matrix out of cache or a multi-core pool)\n\n");

  const auto varIdx = d.varLayout().indexOf("s");
  std::vector<Row> rows;
  bool allExact = true;
  bool statsOk = true;

  std::printf("%-4s %-16s %-16s %-9s %-22s %-20s %-10s\n", "k",
              "per-formula(s)", "batched(s)", "speedup",
              "traversals (sum->max)", "mask bytes (byte->bv)", "max|diff|");
  for (std::size_t k = 1; k <= config.maxK; k *= 2) {
    const std::vector<FormulaSpec> specs = makeFormulas(config, k);
    Row row;
    row.k = k;

    // --- per-formula: the legacy loop, one traversal per step per formula.
    std::vector<double> perFormula;
    {
      const util::Stopwatch timer;
      for (const FormulaSpec& spec : specs) {
        std::vector<std::uint8_t> psi(d.numStates(), 0);
        for (std::uint32_t s = 0; s < d.numStates(); ++s) {
          psi[s] = d.varValue(s, varIdx) == spec.target;
        }
        perFormula.push_back(
            mc::fromInitial(d, legacyBoundedFinally(d, psi, spec.bound)));
        row.perFormulaTraversals += spec.bound;
      }
      row.perFormulaSeconds = timer.elapsedSeconds();
    }

    // --- planned/batched: one engine request, one masked traversal. The
    // model's fingerprint skips the structural probe so the timing isolates
    // property evaluation, not model hashing.
    engine::AnalysisRequest request;
    request.model = &model;
    for (const FormulaSpec& spec : specs) {
      request.properties.push_back("P=? [ F<=" + std::to_string(spec.bound) +
                                   " s=" + std::to_string(spec.target) + " ]");
    }
    const util::Stopwatch timer;
    const engine::AnalysisResponse response = engine.analyze(request);
    row.batchedSeconds = timer.elapsedSeconds();
    if (!response.ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   response.results.empty()
                       ? response.error.c_str()
                       : response.results[0].error.c_str());
      return 1;
    }

    std::uint64_t maxBound = 0;
    for (const FormulaSpec& spec : specs) {
      maxBound = std::max(maxBound, spec.bound);
    }
    row.batchedTraversals = maxBound;
    row.traversalsSaved = response.plan.traversalsSaved;
    statsOk = statsOk &&
              row.traversalsSaved == row.perFormulaTraversals - maxBound;

    // Mask memory: the plan's interned target sets live as packed
    // BitVectors; the byte-per-state representation they replaced is ~8x
    // larger (exactly n bytes vs ceil(n/64) words per mask).
    row.maskBytesPacked = response.plan.maskBytesPacked;
    row.maskBytesByte = response.plan.maskBytesByte;
    statsOk = statsOk && row.maskBytesPacked > 0 &&
              row.maskBytesPacked * 4 <= row.maskBytesByte;

    for (std::size_t j = 0; j < k; ++j) {
      const double diff = response.results[j].value > perFormula[j]
                              ? response.results[j].value - perFormula[j]
                              : perFormula[j] - response.results[j].value;
      row.maxDiff = std::max(row.maxDiff, diff);
    }
    allExact = allExact && row.maxDiff == 0.0;

    std::printf("%-4zu %-16.3f %-16.3f %-9.2f %8llu -> %-11llu "
                "%8llu -> %-9llu %-10g\n",
                k, row.perFormulaSeconds, row.batchedSeconds,
                row.perFormulaSeconds / row.batchedSeconds,
                static_cast<unsigned long long>(row.perFormulaTraversals),
                static_cast<unsigned long long>(row.batchedTraversals),
                static_cast<unsigned long long>(row.maskBytesByte),
                static_cast<unsigned long long>(row.maskBytesPacked),
                row.maxDiff);
    rows.push_back(row);
  }

  if (config.csvPath != nullptr) {
    std::ofstream csv(config.csvPath);
    csv << "k,states,nnz,max_steps,per_formula_seconds,batched_seconds,"
           "batched_seconds_per_step,speedup,per_formula_traversals,"
           "batched_traversals,traversals_saved,mask_bytes_byte,"
           "mask_bytes_packed,max_abs_diff\n";
    for (const Row& row : rows) {
      csv << row.k << ',' << d.numStates() << ',' << d.numTransitions() << ','
          << config.steps << ',' << row.perFormulaSeconds << ','
          << row.batchedSeconds << ','
          << row.batchedSeconds / static_cast<double>(row.batchedTraversals)
          << ',' << row.perFormulaSeconds / row.batchedSeconds << ','
          << row.perFormulaTraversals << ',' << row.batchedTraversals << ','
          << row.traversalsSaved << ',' << row.maskBytesByte << ','
          << row.maskBytesPacked << ',' << row.maxDiff << '\n';
    }
    std::printf("\nwrote %s\n", config.csvPath);
  }

  if (!allExact) {
    std::printf("\nFAIL: planned/batched evaluation diverged from the "
                "per-formula loops\n");
    return 1;
  }
  if (!statsOk) {
    std::printf("\nFAIL: plan stats disagree with the traversal or "
                "mask-byte arithmetic\n");
    return 1;
  }
  std::printf("\nOK: batched bounded evaluation bit-identical to the "
              "per-formula loops (one traversal per step instead of k)\n");
  return 0;
}
