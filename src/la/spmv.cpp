#include "la/spmv.hpp"

#include <cassert>
#include <string>

#include "la/simd_kernels.hpp"
#include "obs/metrics.hpp"

namespace mimostat::la {

namespace {

// The kernels themselves live in simd_kernels.hpp as per-target
// instantiations. This file owns the dispatch resolution, the left-side
// point-mass scatter, the column-panel decomposition and the block/panel
// fan-out (bit-compatibility conditions: see spmv.hpp).

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

/// Resolve the call's dispatch target and bump the obs counters.
SimdTarget dispatchTarget(const Exec& exec) {
  const SimdTarget target = resolveSimdTarget(exec.simd);
  const SimdMetrics& metrics = simdMetrics();
  metrics.dispatch.inc();
  metrics.byTarget[static_cast<std::size_t>(target)].inc();
  return target;
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
  const SimdTarget target = dispatchTarget(exec);
  const detail::KernelSet& ks = detail::kernelsFor(target);
  if (stats != nullptr) *stats = SpmmStats{0, target};
  Y.resize(static_cast<std::size_t>(M.numRows()) * k);
  if (k == 0) return;  // empty tile: nothing to traverse
  const detail::CsrView view = viewOf(M);

  if (k == 1) {
    // Single-column fast path: the panel loop's per-entry width iteration
    // costs ~2x against the plain row gather on width-1 workloads (one
    // bounded column, transient sweeps, power iteration). Frozen rows skip
    // their gather outright — the accumulator would be discarded anyway —
    // matching the legacy bounded-until loop's work profile as well as its
    // bits.
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

/// Left product of a near-point-mass x by the source-major scatter: it
/// costs only the support rows' nonzeros, where the transpose gather always
/// traverses every nonzero. Returns false (y untouched) once x has more
/// than n/64 + 1 nonzeros; the support scan stops there, so a dense x pays
/// O(n/64), not O(n). Scatter and gather are bitwise-equal (spmv.hpp), so
/// the choice is invisible to results. The scatter is support-bound, not
/// lane-bound, so it stays scalar and skips SIMD dispatch.
bool scatterPointMass(const CsrMatrix& A, const std::vector<double>& x,
                      std::vector<double>& y) {
  const std::uint32_t n = A.numRows();
  assert(x.size() == n);
  const std::uint32_t sparseCap = n / 64 + 1;
  std::uint32_t support = 0;
  for (std::uint32_t s = 0; s < n && support <= sparseCap; ++s) {
    support += x[s] != 0.0 ? 1 : 0;
  }
  if (support > sparseCap) return false;
  const std::uint64_t* rowPtr = A.rowPtr().data();
  const std::uint32_t* col = A.col().data();
  const double* val = A.val().data();
  y.assign(A.numCols(), 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    const double xs = x[s];
    if (xs == 0.0) continue;
    for (std::uint64_t k = rowPtr[s]; k < rowPtr[s + 1]; ++k) {
      y[col[k]] += xs * val[k];
    }
  }
  return true;
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

void spmm(const CsrMatrix& A, const std::vector<double>& X, std::size_t k,
          std::vector<double>& Y, const Exec& exec, Side side,
          const std::vector<BitVector>* masks, SpmmStats* stats) {
  if (masks != nullptr) {
    assert(A.numRows() == A.numCols());
    assert(masksMatch(*masks, k, A.numRows()));
  }
  const BitVector* maskData = masks != nullptr ? masks->data() : nullptr;
  if (side == Side::kRight) {
    spmmImpl(A, X, k, maskData, Y, exec, stats);
    return;
  }
  const CsrMatrix& T = A.transposed();
  if (k == 1 && masks == nullptr && scatterPointMass(A, X, Y)) {
    if (stats != nullptr) *stats = SpmmStats{1, SimdTarget::kScalar};
    return;
  }
  spmmImpl(T, X, k, maskData, Y, exec, stats);
}

}  // namespace mimostat::la
