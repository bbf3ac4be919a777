// google-benchmark micro kernels for the engine primitives: sparse
// matrix-vector products (transient analysis), bounded-until iterations,
// bisimulation lumping, Gaussian cell probabilities and per-SIMD-target
// masked SpMM (registered only for targets this host can run). A custom
// main() first replays every supported SIMD target against the
// forced-scalar kernels and exits 1 on any bitwise mismatch — the
// benchmark rows are only worth reading if the dispatch is exact.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "comm/quantizer.hpp"
#include "dtmc/builder.hpp"
#include "la/exec.hpp"
#include "la/simd.hpp"
#include "la/spmv.hpp"
#include "lump/bisim.hpp"
#include "mc/transient.hpp"
#include "util/rng.hpp"
#include "viterbi/model_reduced.hpp"

namespace {

using namespace mimostat;

const dtmc::ExplicitDtmc& viterbiDtmc() {
  static const dtmc::ExplicitDtmc dtmc = [] {
    viterbi::ViterbiParams params;
    params.tracebackLength = 5;
    const viterbi::ReducedViterbiModel model(params);
    return dtmc::buildExplicit(model).dtmc;
  }();
  return dtmc;
}

void BM_TransientStep(benchmark::State& state) {
  // One mc::TransientSweep::advance per iteration. The sweep stops
  // multiplying at its exact fixed point, so a stationary sweep restarts
  // from pi_0 (untimed) to keep every timed step a matrix traversal.
  const auto& d = viterbiDtmc();
  std::optional<mc::TransientSweep> sweep;
  sweep.emplace(d);
  for (auto _ : state) {
    if (sweep->stationary()) {
      state.PauseTiming();
      sweep.emplace(d);
      state.ResumeTiming();
    }
    sweep->advance();
    benchmark::DoNotOptimize(sweep->distribution().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.numTransitions()));
}
BENCHMARK(BM_TransientStep);

void BM_BoundedUntil(benchmark::State& state) {
  // F<=bound flag as the checker's bounded group runs it: one masked
  // la::spmm column, flag states frozen at their initial 1.0.
  const auto& d = viterbiDtmc();
  std::vector<la::BitVector> frozen(1, la::BitVector(d.numStates()));
  std::vector<double> x0(d.numStates(), 0.0);
  const auto flagIdx = d.varLayout().indexOf("flag");
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (d.varValue(s, flagIdx) == 1) {
      frozen[0].set(s);
      x0[s] = 1.0;
    }
  }
  const auto bound = static_cast<std::uint64_t>(state.range(0));
  std::vector<double> x;
  std::vector<double> next;
  for (auto _ : state) {
    x = x0;
    for (std::uint64_t j = 0; j < bound; ++j) {
      la::spmm(d.matrix(), x, 1, next, {}, la::Side::kRight, &frozen);
      x.swap(next);
    }
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_BoundedUntil)->Arg(16)->Arg(64)->Arg(256);

void BM_ModelBuild(benchmark::State& state) {
  viterbi::ViterbiParams params;
  params.tracebackLength = static_cast<int>(state.range(0));
  const viterbi::ReducedViterbiModel model(params);
  for (auto _ : state) {
    const auto result = dtmc::buildExplicit(model);
    benchmark::DoNotOptimize(result.dtmc.numStates());
  }
}
BENCHMARK(BM_ModelBuild)->Arg(3)->Arg(4)->Arg(5);

void BM_Lumping(benchmark::State& state) {
  const auto& d = viterbiDtmc();
  std::vector<double> reward(d.numStates(), 0.0);
  const auto flagIdx = d.varLayout().indexOf("flag");
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    reward[s] = d.varValue(s, flagIdx);
  }
  const auto keys =
      lump::keysFromMasksAndRewards(reward.size(), {}, {&reward});
  for (auto _ : state) {
    const auto result = lump::lump(d, keys);
    benchmark::DoNotOptimize(result.partition.numBlocks);
  }
}
BENCHMARK(BM_Lumping);

void BM_QuantizerCellProbs(benchmark::State& state) {
  const comm::UniformQuantizer quant(8, 3.0);
  double signal = -2.0;
  for (auto _ : state) {
    signal = signal >= 2.0 ? -2.0 : signal + 0.1;
    benchmark::DoNotOptimize(quant.cellProbabilities(signal, 0.8).data());
  }
}
BENCHMARK(BM_QuantizerCellProbs);

// ------------------------------------------------------ SIMD masked SpMM

constexpr la::SimdTarget kAllTargets[] = {
    la::SimdTarget::kScalar, la::SimdTarget::kSse2, la::SimdTarget::kAvx2};

/// Masked bounded-traversal workload on the Viterbi chain: 8 RHS columns,
/// ~1/8 of the entries frozen per column.
struct MaskedFixture {
  const la::CsrMatrix* m = nullptr;
  std::size_t k = 8;
  std::vector<double> X;
  std::vector<la::BitVector> masks;
};

const MaskedFixture& maskedFixture() {
  static const MaskedFixture fixture = [] {
    MaskedFixture f;
    f.m = &viterbiDtmc().matrix();
    const std::uint32_t n = f.m->numRows();
    f.X.resize(static_cast<std::size_t>(n) * f.k);
    f.masks.assign(f.k, la::BitVector(n));
    util::Xoshiro256 rng(71);
    for (std::uint32_t s = 0; s < n; ++s) {
      for (std::size_t j = 0; j < f.k; ++j) {
        f.X[s * f.k + j] = rng.nextDouble();
        if (rng.nextBounded(8) == 0) f.masks[j].set(s);
      }
    }
    return f;
  }();
  return fixture;
}

void BM_MaskedSpmmTarget(benchmark::State& state, la::SimdTarget target) {
  const MaskedFixture& f = maskedFixture();
  la::Exec exec;
  exec.simd = target;
  std::vector<double> Y;
  for (auto _ : state) {
    la::spmm(*f.m, f.X, f.k, Y, exec, la::Side::kRight, &f.masks);
    benchmark::DoNotOptimize(Y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.m->numNonZeros()) *
                          static_cast<std::int64_t>(f.k));
}

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Replay every supported target against the forced-scalar kernels; any
/// byte of divergence fails the run before a single benchmark executes.
bool verifySimdTargetsBitwise() {
  const MaskedFixture& f = maskedFixture();
  la::Exec scalarExec;
  scalarExec.simd = la::SimdTarget::kScalar;
  std::vector<double> refMasked;
  la::spmm(*f.m, f.X, f.k, refMasked, scalarExec, la::Side::kRight,
           &f.masks);
  std::vector<double> refPlain;
  la::spmm(*f.m, f.X, f.k, refPlain, scalarExec);
  bool ok = true;
  for (const la::SimdTarget target : kAllTargets) {
    if (!la::simdTargetSupported(target)) continue;
    la::Exec exec;
    exec.simd = target;
    std::vector<double> Y;
    la::spmm(*f.m, f.X, f.k, Y, exec, la::Side::kRight, &f.masks);
    std::vector<double> Z;
    la::spmm(*f.m, f.X, f.k, Z, exec);
    if (!bitEqual(Y, refMasked) || !bitEqual(Z, refPlain)) {
      std::fprintf(stderr,
                   "FAIL: %s SpMM diverged bitwise from forced scalar\n",
                   la::simdTargetName(target));
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  for (const la::SimdTarget target : kAllTargets) {
    if (!la::simdTargetSupported(target)) continue;
    benchmark::RegisterBenchmark(
        (std::string("BM_MaskedSpmm/") + la::simdTargetName(target)).c_str(),
        [target](benchmark::State& state) {
          BM_MaskedSpmmTarget(state, target);
        });
  }
  if (!verifySimdTargetsBitwise()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
