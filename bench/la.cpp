// bench_la — the linear-algebra backbone under load.
//
//   1. SpMV: the legacy scalar scatter loop vs the blocked gather (left
//      la::spmm, k = 1, sequential) vs the row-partitioned parallel gather
//      at 1/2/8 pool threads, propagating a distribution over a large
//      random stochastic chain.
//   2. Masked SpMM: the legacy n x k byte-mask frozen-entry loop vs masked
//      la::spmm over packed la::BitVector column masks, sequential and at
//      1/2/8 pool threads — same values bit for bit, 8x less mask memory
//      (the mask_bytes columns in the CSV).
//   3. SIMD dispatch: masked SpMM forced to scalar vs every compiled-and-
//      supported vector target (sequential and at 2/8 pool threads). The
//      forced-scalar output is the oracle; each target's panel count and
//      per-panel traversal time land in the simd_target/panels/
//      seconds_per_panel CSV columns.
//
// Every variant is checked against the scalar path with max|diff| asserted
// EXACTLY 0.0 — the la:: determinism contract is bit-identity, not
// tolerance — and the process exits 1 on any mismatch (this is the ctest
// smoke). `--csv <path>` writes the measurements for the CI artifact.
//
// Note: the parallel rows only show wall-clock wins on multi-core hosts; on
// a single hardware thread they measure dispatch overhead (values still
// must match bitwise, which is the point of the smoke).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "engine/thread_pool.hpp"
#include "la/csr_matrix.hpp"
#include "la/exec.hpp"
#include "la/simd.hpp"
#include "la/spmv.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace mimostat;

struct Config {
  std::uint32_t states = 150'000;
  std::uint32_t fanout = 8;
  std::uint64_t steps = 40;
  std::size_t rhs = 8;
  const char* csvPath = nullptr;
};

/// Random stochastic chain as an explicit DTMC (uniform initial
/// distribution, no decoded variables — this bench only multiplies).
dtmc::ExplicitDtmc randomChain(const Config& config) {
  util::Xoshiro256 rng(0x1A2B3C4D5E6Full);
  dtmc::ExplicitDtmc::Raw raw;
  raw.rowPtr = {0};
  std::vector<std::pair<std::uint32_t, double>> row;
  for (std::uint32_t s = 0; s < config.states; ++s) {
    row.clear();
    for (std::uint32_t k = 0; k < config.fanout; ++k) {
      // A local neighbour plus far jumps: banded structure with shuffles,
      // roughly what lumped Viterbi/MIMO chains look like.
      const auto target = static_cast<std::uint32_t>(
          k == 0 ? (s + 1) % config.states : rng.nextBounded(config.states));
      row.emplace_back(target, rng.nextDouble() + 0.05);
    }
    std::sort(row.begin(), row.end());
    double total = 0.0;
    for (const auto& [c, w] : row) total += w;
    std::uint32_t lastCol = 0;
    bool first = true;
    for (const auto& [c, w] : row) {
      if (!first && c == lastCol) {
        raw.val.back() += w / total;  // merge duplicate targets
        continue;
      }
      raw.col.push_back(c);
      raw.val.push_back(w / total);
      lastCol = c;
      first = false;
    }
    raw.rowPtr.push_back(raw.col.size());
  }
  raw.initial.assign(config.states, 1.0 / config.states);
  raw.keys.assign(config.states, 0);  // no variables: every key is 0
  return dtmc::ExplicitDtmc::fromRaw(std::move(raw));
}

/// The pre-refactor scalar scatter left product, kept verbatim as the
/// reference the la:: paths must reproduce bit for bit.
void scalarScatterLeft(const la::CsrMatrix& m, const std::vector<double>& x,
                       std::vector<double>& y) {
  y.assign(m.numCols(), 0.0);
  for (std::uint32_t s = 0; s < m.numRows(); ++s) {
    const double xs = x[s];
    if (xs == 0.0) continue;
    for (std::uint64_t k = m.rowPtr()[s]; k < m.rowPtr()[s + 1]; ++k) {
      y[m.col()[k]] += xs * m.val()[k];
    }
  }
}

/// The pre-refactor byte-mask frozen-entry SpMM, kept verbatim as the
/// oracle for the packed-mask kernel: wherever mask[s*k+j] is set, output
/// (s, j) keeps X's value; everywhere else the row gathers in CSR order —
/// the identical floating-point sequence masked la::spmm must produce.
void byteMaskedSpmm(const la::CsrMatrix& m, const std::vector<double>& X,
                    std::size_t k, const std::vector<std::uint8_t>& mask,
                    std::vector<double>& Y) {
  const std::uint32_t n = m.numRows();
  Y.assign(static_cast<std::size_t>(n) * k, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::size_t j = 0; j < k; ++j) {
      if (mask[static_cast<std::size_t>(s) * k + j] != 0) {
        Y[static_cast<std::size_t>(s) * k + j] =
            X[static_cast<std::size_t>(s) * k + j];
        continue;
      }
      double acc = 0.0;
      for (std::uint64_t e = m.rowPtr()[s]; e < m.rowPtr()[s + 1]; ++e) {
        acc += m.val()[e] * X[static_cast<std::size_t>(m.col()[e]) * k + j];
      }
      Y[static_cast<std::size_t>(s) * k + j] = acc;
    }
  }
}

double maxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
    if (diff > worst) worst = diff;
  }
  return worst;
}

la::Exec poolExec(engine::ThreadPool& pool) {
  la::Exec exec;
  exec.runner = engine::laRunnerFor(pool);
  exec.parallelThresholdNnz = 1;  // always fan out: this is the bench
  return exec;
}

struct Row {
  std::string section;
  std::string kernel;
  std::size_t threads;  // 0 = no pool
  double seconds;
  double speedup;
  double maxDiff;
  /// Masked-SpMM rows only: resident bytes of this variant's masks.
  std::uint64_t maskBytes = 0;
  /// SIMD rows only: the forced dispatch target ("" = default dispatch).
  std::string simdTarget;
  /// SIMD rows only: column panels per product (0 = not recorded).
  std::uint64_t panels = 0;
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
    if (intArg("--states", config.states) || intArg("--fanout", config.fanout) ||
        intArg("--steps", config.steps) || intArg("--rhs", config.rhs)) {
      continue;
    }
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      config.csvPath = argv[++i];
      continue;
    }
    std::fprintf(stderr,
                 "usage: bench_la [--states N] [--fanout F] [--steps T] "
                 "[--rhs K] [--csv path]\n");
    return 2;
  }

  std::printf("=== bench_la: scalar vs blocked vs parallel SpMV ===\n");
  const util::Stopwatch buildTimer;
  const dtmc::ExplicitDtmc chain = randomChain(config);
  const la::CsrMatrix& P = chain.matrix();
  std::printf("chain: %u states, %llu transitions, %zu blocks (built in %.2fs)\n\n",
              P.numRows(), static_cast<unsigned long long>(P.numNonZeros()),
              P.blockCount(), buildTimer.elapsedSeconds());

  std::vector<Row> rows;
  bool allExact = true;
  const auto record = [&](const std::string& section, const std::string& kernel,
                          std::size_t threads, double seconds, double scalarSec,
                          double maxDiff, std::uint64_t maskBytes = 0,
                          const std::string& simdTarget = "",
                          std::uint64_t panels = 0) {
    rows.push_back({section, kernel, threads, seconds, scalarSec / seconds,
                    maxDiff, maskBytes, simdTarget, panels});
    allExact = allExact && maxDiff == 0.0;
    std::printf("  %-22s %8.3fs  speedup %5.2fx  max|diff| %g\n",
                (kernel + (threads != 0 ? "(" + std::to_string(threads) + "t)"
                                        : std::string{}))
                    .c_str(),
                seconds, scalarSec / seconds, maxDiff);
  };

  // ---- SpMV: propagate the initial distribution `steps` times.
  const auto propagate =
      [&](const std::function<void(const std::vector<double>&,
                                   std::vector<double>&)>& kernel,
          double& seconds) {
        std::vector<double> pi = chain.initialDistribution();
        std::vector<double> next(pi.size());
        const util::Stopwatch timer;
        for (std::uint64_t t = 0; t < config.steps; ++t) {
          kernel(pi, next);
          pi.swap(next);
        }
        seconds = timer.elapsedSeconds();
        return pi;
      };

  double scalarSec = 0.0;
  const std::vector<double> scalarPi = propagate(
      [&](const std::vector<double>& x, std::vector<double>& y) {
        scalarScatterLeft(P, x, y);
      },
      scalarSec);
  record("spmm-k1", "scalar-scatter", 0, scalarSec, scalarSec, 0.0);

  double blockedSec = 0.0;
  const std::vector<double> blockedPi = propagate(
      [&](const std::vector<double>& x, std::vector<double>& y) {
        la::spmm(P, x, 1, y, {}, la::Side::kLeft);
      },
      blockedSec);
  record("spmm-k1", "blocked-gather", 0, blockedSec, scalarSec,
         maxAbsDiff(blockedPi, scalarPi));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    engine::ThreadPool pool(threads);
    const la::Exec exec = poolExec(pool);
    double seconds = 0.0;
    const std::vector<double> pi = propagate(
        [&](const std::vector<double>& x, std::vector<double>& y) {
          la::spmm(P, x, 1, y, exec, la::Side::kLeft);
        },
        seconds);
    record("spmm-k1", "parallel-gather", threads, seconds, scalarSec,
           maxAbsDiff(pi, scalarPi));
  }

  // ---- masked SpMM: the bounded-traversal update shape. k column masks
  // freeze ~1/8 of the entries; the byte-mask loop is the oracle, the
  // packed-BitVector kernel must match it bit for bit while holding the
  // masks in 8x less memory.
  std::printf("\n=== masked SpMM: byte-mask oracle vs packed la::BitVector "
              "(k=%zu) ===\n",
              config.rhs);
  const std::uint32_t n = P.numRows();
  std::vector<std::uint8_t> byteMask(static_cast<std::size_t>(n) * config.rhs,
                                     0);
  std::vector<la::BitVector> packedMasks(config.rhs, la::BitVector(n));
  {
    util::Xoshiro256 maskRng(0xB17F00Dull);
    for (std::uint32_t s = 0; s < n; ++s) {
      for (std::size_t j = 0; j < config.rhs; ++j) {
        if (maskRng.nextBounded(8) == 0) {
          byteMask[static_cast<std::size_t>(s) * config.rhs + j] = 1;
          packedMasks[j].set(s);
        }
      }
    }
  }
  std::uint64_t packedMaskBytes = 0;
  for (const la::BitVector& m : packedMasks) {
    packedMaskBytes += m.approxBytes();
  }
  const auto byteMaskBytes = static_cast<std::uint64_t>(byteMask.size());
  std::printf("  mask bytes: %llu byte-per-state -> %llu packed (%.1fx)\n",
              static_cast<unsigned long long>(byteMaskBytes),
              static_cast<unsigned long long>(packedMaskBytes),
              static_cast<double>(byteMaskBytes) /
                  static_cast<double>(packedMaskBytes));

  std::vector<double> X0(static_cast<std::size_t>(n) * config.rhs);
  for (std::size_t i = 0; i < X0.size(); ++i) {
    X0[i] = byteMask[i] != 0 ? 1.0 : 0.0;
  }
  const auto propagateMasked =
      [&](const std::function<void(const std::vector<double>&,
                                   std::vector<double>&)>& kernel,
          double& seconds) {
        std::vector<double> X = X0;
        std::vector<double> Y(X.size());
        const util::Stopwatch timer;
        for (std::uint64_t t = 0; t < config.steps; ++t) {
          kernel(X, Y);
          X.swap(Y);
        }
        seconds = timer.elapsedSeconds();
        return X;
      };

  double byteMaskSec = 0.0;
  const std::vector<double> byteMaskOut = propagateMasked(
      [&](const std::vector<double>& X, std::vector<double>& Y) {
        byteMaskedSpmm(P, X, config.rhs, byteMask, Y);
      },
      byteMaskSec);
  record("spmm-masked", "byte-mask", 0, byteMaskSec, byteMaskSec, 0.0,
         byteMaskBytes);

  double packedSec = 0.0;
  const std::vector<double> packedOut = propagateMasked(
      [&](const std::vector<double>& X, std::vector<double>& Y) {
        la::spmm(P, X, config.rhs, Y, {}, la::Side::kRight, &packedMasks);
      },
      packedSec);
  record("spmm-masked", "bitvector", 0, packedSec, byteMaskSec,
         maxAbsDiff(packedOut, byteMaskOut), packedMaskBytes);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    engine::ThreadPool pool(threads);
    const la::Exec exec = poolExec(pool);
    double seconds = 0.0;
    const std::vector<double> out = propagateMasked(
        [&](const std::vector<double>& X, std::vector<double>& Y) {
          la::spmm(P, X, config.rhs, Y, exec, la::Side::kRight,
                   &packedMasks);
        },
        seconds);
    record("spmm-masked", "bitvector", threads, seconds, byteMaskSec,
           maxAbsDiff(out, byteMaskOut), packedMaskBytes);
  }
  std::printf("  per-step masked traversal: %.4fs byte-mask, %.4fs packed\n",
              byteMaskSec / static_cast<double>(config.steps),
              packedSec / static_cast<double>(config.steps));

  // ---- SIMD dispatch: the same masked bounded-traversal shape, forced to
  // scalar and then to every compiled-and-supported vector target. The
  // forced-scalar run is the oracle; any nonzero diff fails the smoke.
  std::printf("\n=== SIMD dispatch: forced scalar vs runtime targets "
              "(k=%zu) ===\n",
              config.rhs);
  la::Exec scalarSimdExec;
  scalarSimdExec.simd = la::SimdTarget::kScalar;
  la::SpmmStats scalarStats;
  double simdScalarSec = 0.0;
  const std::vector<double> simdScalarOut = propagateMasked(
      [&](const std::vector<double>& X, std::vector<double>& Y) {
        la::spmm(P, X, config.rhs, Y, scalarSimdExec, la::Side::kRight,
                 &packedMasks, &scalarStats);
      },
      simdScalarSec);
  record("spmm-simd", "scalar", 0, simdScalarSec, simdScalarSec,
         maxAbsDiff(simdScalarOut, byteMaskOut), packedMaskBytes, "scalar",
         scalarStats.panels);

  double bestTargetSec = simdScalarSec;
  const char* bestTargetName = "scalar";
  for (const la::SimdTarget target :
       {la::SimdTarget::kSse2, la::SimdTarget::kAvx2}) {
    if (!la::simdTargetSupported(target)) continue;
    const char* name = la::simdTargetName(target);
    la::Exec exec;
    exec.simd = target;
    la::SpmmStats stats;
    double seconds = 0.0;
    const std::vector<double> out = propagateMasked(
        [&](const std::vector<double>& X, std::vector<double>& Y) {
          la::spmm(P, X, config.rhs, Y, exec, la::Side::kRight,
                   &packedMasks, &stats);
        },
        seconds);
    record("spmm-simd", name, 0, seconds, simdScalarSec,
           maxAbsDiff(out, simdScalarOut), packedMaskBytes, name,
           stats.panels);
    if (seconds < bestTargetSec) {
      bestTargetSec = seconds;
      bestTargetName = name;
    }
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      engine::ThreadPool pool(threads);
      la::Exec pooled = poolExec(pool);
      pooled.simd = target;
      la::SpmmStats pooledStats;
      double pooledSec = 0.0;
      const std::vector<double> pooledOut = propagateMasked(
          [&](const std::vector<double>& X, std::vector<double>& Y) {
            la::spmm(P, X, config.rhs, Y, pooled, la::Side::kRight,
                     &packedMasks, &pooledStats);
          },
          pooledSec);
      record("spmm-simd", name, threads, pooledSec, simdScalarSec,
             maxAbsDiff(pooledOut, simdScalarOut), packedMaskBytes, name,
             pooledStats.panels);
    }
  }
  std::printf("  single-core masked-SpMM speedup (%s vs forced scalar): "
              "%.2fx\n",
              bestTargetName, simdScalarSec / bestTargetSec);

  if (config.csvPath != nullptr) {
    std::ofstream csv(config.csvPath);
    csv << "section,kernel,threads,states,nnz,rhs,steps,seconds,"
           "seconds_per_step,speedup,max_abs_diff,mask_bytes,"
           "simd_target,panels,seconds_per_panel\n";
    for (const Row& row : rows) {
      // Per-panel traversal time: each step walks `panels` column panels.
      const double secondsPerPanel =
          row.panels == 0
              ? 0.0
              : row.seconds / static_cast<double>(config.steps * row.panels);
      csv << row.section << ',' << row.kernel << ',' << row.threads << ','
          << P.numRows() << ',' << P.numNonZeros() << ',' << config.rhs << ','
          << config.steps << ',' << row.seconds << ','
          << row.seconds / static_cast<double>(config.steps) << ','
          << row.speedup << ',' << row.maxDiff << ',' << row.maskBytes << ','
          << row.simdTarget << ',' << row.panels << ',' << secondsPerPanel
          << '\n';
    }
    std::printf("\nwrote %s\n", config.csvPath);
  }

  if (!allExact) {
    std::printf("\nFAIL: a la:: path diverged from the scalar reference\n");
    return 1;
  }
  std::printf("\nOK: every la:: path bit-identical to the scalar reference\n");
  return 0;
}
