// bench_reduce — unreduced vs plan-aware quotient vs state elimination on
// the paper's comm/ chains (the MIMO ML-detector DTMCs of Table II/V).
//
// Three configurations per workload:
//
//   1. unreduced:   one engine request (BER transient + bounded error
//                   probability) with the reduction stage forced off;
//   2. quotient:    the same request with the plan-aware bisimulation
//                   quotient forced on — the partition is seeded by the
//                   plan's needs only (atom "error" + the default reward,
//                   both functions of the sticky flag bit), so the
//                   detector's per-antenna quantizer detail merges far
//                   beyond the Table II symmetry factors. Run twice: the
//                   second request must be served from the engine's
//                   quotient cache (EngineStats::quotientHits);
//   3. elimination: mean time to first error (R=?[F error] with unit step
//                   rewards — the comm MTTFE figure) solved exactly by
//                   reduce:: state elimination on the quotient, checked
//                   against the fixed-point residual of the original
//                   equations and, when the iterative baseline converges
//                   in a sane iteration budget (it needs ~ln(1/eps)/BER
//                   iterations, hopeless at BER ~1e-5), against the
//                   unreduced iterative answer.
//
// The process exits 1 unless the contract holds on every workload:
// quotient applied with at least --min-factor state reduction, quotient
// values within 1e-9 of the unreduced reference (exact lumping, FP
// accumulation order), a second request hitting the quotient cache, and
// the elimination residual at 1e-9 relative. `--smoke` runs scaled-down
// detector configs for ctest; `--csv <path>` writes the measurements for
// the CI artifact.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "la/bit_vector.hpp"
#include "mc/unbounded.hpp"
#include "mimo/model.hpp"
#include "reduce/reduce.hpp"
#include "util/timer.hpp"

namespace {

using namespace mimostat;

struct Config {
  bool smoke = false;
  double minFactor = 10.0;
  std::uint64_t elimMaxStates = 50'000;
  const char* csvPath = nullptr;
};

struct Workload {
  std::string name;
  mimo::MimoParams params;
};

struct CsvRow {
  std::string workload;
  std::string config;
  std::uint64_t states = 0;
  std::uint64_t nnz = 0;
  double reduceSeconds = 0.0;
  double checkSeconds = 0.0;
  double maxAbsDiff = 0.0;
  bool cacheHit = false;
};

const std::vector<std::string> kProperties{
    "R=? [ I=8 ]",          // BER (sticky flag, any T >= 2)
    "P=? [ F<=6 error ]",   // error within the first two pipeline passes
};

/// Initial-distribution weighting of a per-state value vector.
double weightedValue(const dtmc::ExplicitDtmc& dtmc,
                     const std::vector<double>& values) {
  double acc = 0.0;
  const auto& initial = dtmc.initialDistribution();
  for (std::uint32_t s = 0; s < dtmc.numStates(); ++s) {
    acc += initial[s] * values[s];
  }
  return acc;
}

/// Max-norm residual of x against the expected-reward fixed point
/// x(s) = r(s) + sum_t P(s,t) x(t) on non-psi states (psi states pin 0).
double rewardResidual(const dtmc::ExplicitDtmc& dtmc,
                      const std::vector<double>& reward,
                      const la::BitVector& psi,
                      const std::vector<double>& x) {
  double worst = 0.0;
  const auto& rowPtr = dtmc.rowPtr();
  const auto& col = dtmc.col();
  const auto& val = dtmc.val();
  for (std::uint32_t s = 0; s < dtmc.numStates(); ++s) {
    if (psi.get(s)) continue;
    double acc = reward[s];
    for (std::uint64_t k = rowPtr[s]; k < rowPtr[s + 1]; ++k) {
      acc += val[k] * x[col[k]];
    }
    worst = std::max(worst, std::abs(acc - x[s]));
  }
  return worst;
}

bool runWorkload(const Workload& workload, const Config& config,
                 std::vector<CsvRow>& csv) {
  bool ok = true;
  const auto fail = [&ok, &workload](const std::string& what) {
    std::printf("FAIL [%s] %s\n", workload.name.c_str(), what.c_str());
    ok = false;
  };

  const mimo::MimoDetectorModel model(workload.params);
  engine::EngineOptions engineOptions;
  engineOptions.threads = 1;
  engineOptions.maxCachedModels = 8;
  engine::AnalysisEngine eng(engineOptions);

  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = kProperties;
  request.options.reduction.quotient = reduce::Toggle::kOff;

  const auto unreduced = eng.analyze(request);
  if (!unreduced.ok()) {
    fail("unreduced request failed: " + unreduced.error);
    return false;
  }
  csv.push_back({workload.name, "unreduced", unreduced.states,
                 unreduced.transitions, 0.0, unreduced.timing.checkSeconds,
                 0.0, false});

  request.options.reduction.quotient = reduce::Toggle::kOn;
  const auto quotient = eng.analyze(request);
  if (!quotient.ok()) {
    fail("quotient request failed: " + quotient.error);
    return false;
  }
  if (!quotient.reduction.applied) fail("quotient stage did not apply");
  const double factor =
      quotient.reduction.statesAfter == 0
          ? 0.0
          : static_cast<double>(quotient.reduction.statesBefore) /
                static_cast<double>(quotient.reduction.statesAfter);
  if (factor < config.minFactor) {
    fail("state reduction factor " + std::to_string(factor) + " below " +
         std::to_string(config.minFactor));
  }
  double maxDiff = 0.0;
  for (std::size_t i = 0; i < kProperties.size(); ++i) {
    maxDiff = std::max(maxDiff, std::abs(quotient.results[i].value -
                                         unreduced.results[i].value));
  }
  // Exact by strong lumping; only FP accumulation order differs.
  if (!(maxDiff <= 1e-9)) {
    fail("quotient values drifted by " + std::to_string(maxDiff));
  }
  csv.push_back({workload.name, "quotient", quotient.reduction.statesAfter,
                 quotient.reduction.transitionsAfter,
                 quotient.reduction.reduceSeconds,
                 quotient.timing.checkSeconds, maxDiff, false});

  // A coalesced sweep re-requests the same (model, plan): the quotient must
  // come back from the cache.
  const auto repeat = eng.analyze(request);
  if (!repeat.ok() || !repeat.reduction.applied) {
    fail("repeat quotient request failed");
  } else if (!repeat.reduction.cacheHit) {
    fail("repeat request missed the quotient cache");
  }
  const auto stats = eng.stats();
  if (stats.quotientBuilds != 1 || stats.quotientHits < 1) {
    fail("quotient cache counters off: builds=" +
         std::to_string(stats.quotientBuilds) +
         " hits=" + std::to_string(stats.quotientHits));
  }

  // --- elimination: mean time to first error on the quotient ---
  const auto build = dtmc::buildExplicit(model);
  const la::BitVector error = build.dtmc.evalAtom(model, "error");
  const std::vector<double> flagReward = build.dtmc.evalReward(model, "");
  const reduce::ReducedModel reduced =
      reduce::buildQuotient(build.dtmc, {&error}, {&flagReward});
  if (reduced.info.statesAfter > config.elimMaxStates) {
    std::printf("  [%s] quotient %u states > --elim-max-states %llu, "
                "elimination stage skipped\n",
                workload.name.c_str(), reduced.info.statesAfter,
                static_cast<unsigned long long>(config.elimMaxStates));
    return ok;
  }
  // The quotient's states are block representatives, and "error" seeded
  // the partition, so it evaluates on the quotient as on every member.
  const la::BitVector qError = reduced.quotient.evalAtom(model, "error");
  const std::vector<double> qOnes(reduced.quotient.numStates(), 1.0);

  util::Stopwatch elimTimer;
  const mc::ReachResult elim = mc::expectedReachRewardByElimination(
      reduced.quotient, qOnes, qError);
  const double elimSeconds = elimTimer.elapsedSeconds();
  const double mttfe = weightedValue(reduced.quotient, elim.stateValues);

  // Exactness check that does not depend on an iterative baseline: the
  // elimination answer must satisfy the original fixed-point equations.
  const double residual =
      rewardResidual(reduced.quotient, qOnes, qError, elim.stateValues);
  const double scale = std::max(1.0, mttfe);
  if (!(residual <= 1e-9 * scale)) {
    fail("elimination residual " + std::to_string(residual) +
         " exceeds 1e-9 relative");
  }

  // Iterative baseline only when it can converge: value iteration contracts
  // by ~(1 - BER) per step, so it needs ~ln(1/eps)/BER iterations.
  const double ber = unreduced.results[0].value;
  double iterDiff = 0.0;
  double iterSeconds = 0.0;
  const bool iterFeasible = ber > 1e-3;
  if (iterFeasible) {
    util::Stopwatch iterTimer;
    const mc::ReachResult iterative =
        mc::expectedReachReward(build.dtmc, std::vector<double>(
                                                build.dtmc.numStates(), 1.0),
                                error);
    iterSeconds = iterTimer.elapsedSeconds();
    if (iterative.solver && !iterative.solver->converged) {
      fail("iterative MTTFE baseline did not converge");
    } else {
      const double reference = weightedValue(build.dtmc, iterative.stateValues);
      iterDiff = std::abs(mttfe - reference);
      if (!(iterDiff <= 1e-6 * std::max(1.0, std::abs(reference)))) {
        fail("elimination MTTFE " + std::to_string(mttfe) +
             " vs iterative " + std::to_string(reference));
      }
      csv.push_back({workload.name, "mttfe_iterative_full",
                     build.dtmc.numStates(), build.dtmc.numTransitions(), 0.0,
                     iterSeconds, 0.0, false});
    }
  } else {
    std::printf("  [%s] BER %.3g too small for the iterative MTTFE baseline "
                "(would need ~%.0f iterations) — residual check only\n",
                workload.name.c_str(), ber, std::log(1e12) / ber);
  }
  csv.push_back({workload.name, "mttfe_elimination_quotient",
                 reduced.quotient.numStates(),
                 reduced.quotient.numTransitions(), reduced.info.seconds,
                 elimSeconds, iterDiff, false});

  std::printf("%-10s %10llu -> %8llu states (factor %7.1f), nnz %llu -> %llu\n"
              "           t_check %0.3fs -> %0.3fs (+t_reduce %0.3fs), "
              "max|dv| %.2e, MTTFE %.6g (elim %0.3fs, residual %.2e)\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(unreduced.states),
              static_cast<unsigned long long>(quotient.reduction.statesAfter),
              factor,
              static_cast<unsigned long long>(unreduced.transitions),
              static_cast<unsigned long long>(
                  quotient.reduction.transitionsAfter),
              unreduced.timing.checkSeconds, quotient.timing.checkSeconds,
              quotient.reduction.reduceSeconds, maxDiff, mttfe, elimSeconds,
              residual);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.smoke = true;
    } else if (std::strcmp(argv[i], "--min-factor") == 0 && i + 1 < argc) {
      config.minFactor = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--elim-max-states") == 0 &&
               i + 1 < argc) {
      config.elimMaxStates = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      config.csvPath = argv[++i];
    } else {
      std::printf("usage: bench_reduce [--smoke] [--min-factor F] "
                  "[--elim-max-states N] [--csv path]\n");
      return 2;
    }
  }

  std::vector<Workload> workloads;
  if (config.smoke) {
    // Scaled-down detector configs: same pipeline/plan structure, small
    // enough for ctest. The factor bound relaxes with the state count.
    if (config.minFactor == 10.0) config.minFactor = 4.0;
    mimo::MimoParams small = mimo::mimo1x2Params();
    small.hLevels = 2;
    small.yLevels = 3;
    workloads.push_back({"1x2-smoke", small});
    mimo::MimoParams tiny = mimo::mimo1x2Params();
    tiny.hLevels = 2;
    tiny.yLevels = 2;
    tiny.snrDb = 6.0;
    workloads.push_back({"1x2-tiny", tiny});
  } else {
    workloads.push_back({"1x2", mimo::mimo1x2Params()});
    workloads.push_back({"1x4", mimo::mimo1x4Params()});
  }

  std::printf("=== reduce:: plan-aware quotient + elimination on MIMO "
              "detector chains ===\n\n");
  std::vector<CsvRow> csv;
  bool ok = true;
  for (const auto& workload : workloads) {
    ok = runWorkload(workload, config, csv) && ok;
  }

  if (config.csvPath != nullptr) {
    std::ofstream out(config.csvPath);
    out << "workload,config,states,nnz,reduce_seconds,check_seconds,"
           "max_abs_diff,cache_hit\n";
    for (const auto& row : csv) {
      out << row.workload << ',' << row.config << ',' << row.states << ','
          << row.nnz << ',' << row.reduceSeconds << ',' << row.checkSeconds
          << ',' << row.maxAbsDiff << ',' << (row.cacheHit ? 1 : 0) << '\n';
    }
    std::printf("\nwrote %s\n", config.csvPath);
  }

  std::printf("\n%s\n", ok ? "reduction contract: PASS"
                           : "reduction contract: FAIL");
  return ok ? 0 : 1;
}
