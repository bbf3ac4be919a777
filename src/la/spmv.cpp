#include "la/spmv.hpp"

#include <cassert>
#include <string>

#include "la/simd_kernels.hpp"
#include "obs/metrics.hpp"

namespace mimostat::la {

namespace {

// Bit-compatibility note: the legacy ExplicitDtmc::multiplyLeft scatter
// skipped whole zero-valued source rows. These kernels do NOT branch on
// zero and are still bit-identical to it: a skipped term is v * (+-0.0)
// which is +-0.0, and acc + (+-0.0) can only change acc's bits when acc is
// -0.0 and the term +0.0. An accumulator can become -0.0 only from
// negative-zero terms (exact cancellation of finite terms rounds to +0.0),
// i.e. only when the matrix carries negative values or x carries -0.0 —
// neither occurs for the engine's stochastic matrices, distributions and
// value vectors. Dropping the branch keeps the gather loop a pure
// multiply-add stream the compiler can pipeline (tests assert bitwise
// equality against the legacy scatter, zeros included).
//
// Since the SIMD dispatch layer (la/simd.hpp) the kernels themselves live
// in simd_kernels.hpp as per-target instantiations: lanes run across the k
// RHS columns of one row, never across a row's nonzeros, so every target
// reproduces the scalar reference bit for bit. This file owns the dispatch
// resolution, the column-panel decomposition and the block/panel fan-out.

/// Process-wide dispatch/panel counters. Handles are resolved once and
/// cached — MetricsRegistry::counter takes the registry mutex, the cached
/// Counter::add is a relaxed sharded atomic, cheap enough for kernel entry.
struct SimdMetrics {
  obs::Counter dispatch;
  obs::Counter byTarget[kSimdTargetCount];
  obs::Counter panels;
};

const SimdMetrics& simdMetrics() {
  static const SimdMetrics* const kMetrics = [] {
    auto* m = new SimdMetrics;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    m->dispatch = reg.counter("la.simd.dispatch");
    for (std::size_t t = 0; t < kSimdTargetCount; ++t) {
      m->byTarget[t] = reg.counter(
          std::string("la.simd.dispatch.") +
          simdTargetName(static_cast<SimdTarget>(t)));
    }
    m->panels = reg.counter("la.spmm.panels");
    return m;
  }();
  return *kMetrics;
}

/// Resolve the call's dispatch target, bump the obs counters, return the
/// kernel set to run.
const detail::KernelSet& dispatchKernels(const Exec& exec,
                                         SimdTarget* resolved) {
  const SimdTarget target = resolveSimdTarget(exec.simd);
  const SimdMetrics& metrics = simdMetrics();
  metrics.dispatch.inc();
  metrics.byTarget[static_cast<std::size_t>(target)].inc();
  if (resolved != nullptr) *resolved = target;
  return detail::kernelsFor(target);
}

detail::CsrView viewOf(const CsrMatrix& M) {
  return {M.rowPtr().data(), M.col().data(), M.val().data()};
}

/// Run `body` over the matrix's block row-partition: sequentially, or one
/// task per block on exec's runner. Each output row belongs to exactly one
/// block, so the fan-out is race-free and scheduling-order independent.
template <typename Body>
void forEachBlock(const CsrMatrix& M, const Exec& exec, const Body& body) {
  if (!exec.parallelFor(M.numNonZeros()) || M.blockCount() <= 1) {
    body(0, M.numRows());
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(M.blockCount());
  for (std::size_t b = 0; b < M.blockCount(); ++b) {
    tasks.push_back(
        [&M, &body, b] { body(M.blockBegin(b), M.blockEnd(b)); });
  }
  exec.runner(std::move(tasks));
}

void spmmImpl(const CsrMatrix& M, const std::vector<double>& X, std::size_t k,
              const BitVector* masks, std::vector<double>& Y,
              const Exec& exec, SpmmStats* stats) {
  assert(X.size() == static_cast<std::size_t>(M.numCols()) * k);
  SimdTarget target = SimdTarget::kScalar;
  const detail::KernelSet& ks = dispatchKernels(exec, &target);
  if (stats != nullptr) *stats = SpmmStats{0, target};
  Y.resize(static_cast<std::size_t>(M.numRows()) * k);
  if (k == 0) return;  // empty tile: nothing to traverse
  const detail::CsrView view = viewOf(M);

  if (k == 1) {
    // Single-column fast path: the panel loop's per-entry width iteration
    // costs ~2x against the plain row gather on width-1 workloads
    // (per-formula bounded checks). Frozen rows skip their gather outright
    // — the accumulator would be discarded anyway — matching the legacy
    // bounded-until loop's work profile as well as its bits.
    const std::uint64_t* mw =
        masks != nullptr ? masks[0].words().data() : nullptr;
    forEachBlock(M, exec, [&](std::uint32_t begin, std::uint32_t end) {
      if (mw != nullptr) {
        ks.maskedRowGather(view, X.data(), mw, Y.data(), begin, end);
      } else {
        ks.rowGather(view, X.data(), Y.data(), begin, end);
      }
    });
    const SimdMetrics& metrics = simdMetrics();
    metrics.panels.inc();
    if (stats != nullptr) stats->panels = 1;
    return;
  }

  // Column-panel decomposition: tile the k RHS columns into lane-aligned
  // panels (L2-sized when that keeps a panel's X slice cache-resident — see
  // spmmPanelWidth) and reuse one CSR traversal per panel. Each panel's
  // packed-mask pointers are resolved once, outside the row loops.
  const std::size_t width = spmmPanelWidth(M.numCols(), k, ks.lanes);
  const std::size_t panels = (k + width - 1) / width;
  std::vector<std::vector<const std::uint64_t*>> panelMasks;
  if (masks != nullptr) {
    panelMasks.resize(panels);
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j0 = p * width;
      const std::size_t w = k - j0 < width ? k - j0 : width;
      panelMasks[p].resize(w);
      for (std::size_t j = 0; j < w; ++j) {
        panelMasks[p][j] = masks[j0 + j].words().data();
      }
    }
  }

  if (!exec.parallelFor(M.numNonZeros()) ||
      (M.blockCount() <= 1 && panels <= 1)) {
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j0 = p * width;
      const std::size_t w = k - j0 < width ? k - j0 : width;
      ks.panelGather(view, X.data(), k, j0, w,
                     masks != nullptr ? panelMasks[p].data() : nullptr,
                     Y.data(), 0, M.numRows());
    }
  } else {
    // Column-wise split across the pool: the task grid is row blocks x
    // column panels, so a wide group parallelizes even when the matrix has
    // few row blocks (the "many small columns" shape). Every (row, column)
    // output cell belongs to exactly one (block, panel) task and each
    // column's accumulation order is fixed, so the fan-out stays race-free
    // and bit-identical at any thread count.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(M.blockCount() * panels);
    for (std::size_t b = 0; b < M.blockCount(); ++b) {
      for (std::size_t p = 0; p < panels; ++p) {
        tasks.push_back([&M, &X, k, width, p, b, &ks, view, &panelMasks,
                         masks, &Y] {
          const std::size_t j0 = p * width;
          const std::size_t w = k - j0 < width ? k - j0 : width;
          ks.panelGather(view, X.data(), k, j0, w,
                         masks != nullptr ? panelMasks[p].data() : nullptr,
                         Y.data(), M.blockBegin(b), M.blockEnd(b));
        });
      }
    }
    exec.runner(std::move(tasks));
  }

  const SimdMetrics& metrics = simdMetrics();
  metrics.panels.add(panels);
  if (stats != nullptr) stats->panels = panels;
}

#ifndef NDEBUG
bool masksMatch(const std::vector<BitVector>& masks, std::size_t k,
                std::uint32_t numRows) {
  if (masks.size() != k) return false;
  for (const BitVector& m : masks) {
    if (m.size() != numRows) return false;
  }
  return true;
}
#endif

}  // namespace

void spmv(const CsrMatrix& A, const std::vector<double>& x,
          std::vector<double>& y, const Exec& exec) {
  assert(x.size() == A.numCols());
  const detail::KernelSet& ks = dispatchKernels(exec, nullptr);
  const detail::CsrView view = viewOf(A);
  y.resize(A.numRows());
  forEachBlock(A, exec, [&](std::uint32_t begin, std::uint32_t end) {
    ks.rowGather(view, x.data(), y.data(), begin, end);
  });
}

void spmvLeft(const CsrMatrix& A, const std::vector<double>& x,
              std::vector<double>& y, const Exec& exec) {
  const CsrMatrix& T = A.transposed();
  assert(x.size() == T.numCols());

  // Near-point-mass x (a single initial state, the first transient steps):
  // the legacy source-major scatter costs only the support's nonzeros,
  // while the target-major gather always traverses every nonzero. Scatter
  // and gather are bitwise-equal (kernel note above), so picking by
  // sparsity is invisible to results. The support scan exits as soon as x
  // is provably dense, so dense steps pay O(cap), not O(n). The scatter
  // stays scalar — it is support-bound, not lane-bound — so it skips SIMD
  // dispatch.
  const std::uint32_t n = A.numRows();
  const std::uint32_t sparseCap = n / 64 + 1;
  std::uint32_t support = 0;
  for (std::uint32_t s = 0; s < n && support <= sparseCap; ++s) {
    support += x[s] != 0.0 ? 1 : 0;
  }
  if (support <= sparseCap) {
    const std::uint64_t* rowPtr = A.rowPtr().data();
    const std::uint32_t* col = A.col().data();
    const double* val = A.val().data();
    y.assign(T.numRows(), 0.0);
    for (std::uint32_t s = 0; s < n; ++s) {
      const double xs = x[s];
      if (xs == 0.0) continue;
      for (std::uint64_t k = rowPtr[s]; k < rowPtr[s + 1]; ++k) {
        y[col[k]] += xs * val[k];
      }
    }
    return;
  }

  const detail::KernelSet& ks = dispatchKernels(exec, nullptr);
  const detail::CsrView view = viewOf(T);
  y.resize(T.numRows());
  forEachBlock(T, exec, [&](std::uint32_t begin, std::uint32_t end) {
    ks.rowGather(view, x.data(), y.data(), begin, end);
  });
}

void spmm(const CsrMatrix& A, const std::vector<double>& X, std::size_t k,
          std::vector<double>& Y, const Exec& exec, SpmmStats* stats) {
  spmmImpl(A, X, k, nullptr, Y, exec, stats);
}

void spmmLeft(const CsrMatrix& A, const std::vector<double>& X, std::size_t k,
              std::vector<double>& Y, const Exec& exec, SpmmStats* stats) {
  spmmImpl(A.transposed(), X, k, nullptr, Y, exec, stats);
}

void spmmMasked(const CsrMatrix& A, const std::vector<double>& X,
                std::size_t k, const std::vector<BitVector>& masks,
                std::vector<double>& Y, const Exec& exec, SpmmStats* stats) {
  assert(A.numRows() == A.numCols());
  assert(masksMatch(masks, k, A.numRows()));
  spmmImpl(A, X, k, masks.data(), Y, exec, stats);
}

void spmmLeftMasked(const CsrMatrix& A, const std::vector<double>& X,
                    std::size_t k, const std::vector<BitVector>& masks,
                    std::vector<double>& Y, const Exec& exec,
                    SpmmStats* stats) {
  const CsrMatrix& T = A.transposed();
  assert(A.numRows() == A.numCols());
  assert(masksMatch(masks, k, A.numRows()));
  spmmImpl(T, X, k, masks.data(), Y, exec, stats);
}

}  // namespace mimostat::la
