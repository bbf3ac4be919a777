// Internal kernel plumbing for the SIMD dispatch layer — include only from
// src/la/ translation units (the simd-intrinsics lint rule bans intrinsics
// everywhere else, and this header's templates are instantiated inside the
// per-target TUs so each instantiation is compiled with that target's ISA
// flags).
//
// Layout: every target supplies a KernelSet of three function pointers —
// a column-panel gather (the k > 1 workhorse), a plain row gather (k = 1)
// and a frozen-row-skipping masked row gather (one bounded-until column).
// The panel gather is one shared template over a "lanes" policy (vector
// type + load/store/broadcast/mul/add); the row gathers share a template
// over a per-row reduction policy. Policies never expose an FMA: multiply
// and add round separately, exactly like the scalar reference, which is
// what keeps every target bit-identical (see simd.hpp's determinism note).
#pragma once

#include <cstddef>
#include <cstdint>

#include "la/simd.hpp"

namespace mimostat::la::detail {

/// Raw CSR views — plain pointers so the per-target TUs stay independent of
/// the container headers.
struct CsrView {
  const std::uint64_t* rowPtr;
  const std::uint32_t* col;
  const double* val;
};

/// Widest column panel any kernel processes in one CSR traversal. Bounded
/// by register pressure: AVX2 holds a 16-wide panel in 4 accumulator
/// registers, SSE2 in 8 — wider panels spill and lose the point.
inline constexpr std::size_t kMaxPanelColumns = 16;

/// Gather rows [rowBegin, rowEnd) of the column panel [j0, j0 + width) of
/// the row-major (* x k) tile X into Y. `maskWords` is nullptr for an
/// unmasked call, else `width` non-null packed-word pointers (column j0+j's
/// BitVector words): a set bit keeps X's value — the gathered accumulator
/// is computed and discarded, so frozen columns never perturb live ones.
using PanelGatherFn = void (*)(const CsrView& m, const double* X,
                               std::size_t k, std::size_t j0,
                               std::size_t width,
                               const std::uint64_t* const* maskWords,
                               double* Y, std::uint32_t rowBegin,
                               std::uint32_t rowEnd);

/// y[r] = sum_e val[e] * x[col[e]] over rows [rowBegin, rowEnd).
using RowGatherFn = void (*)(const CsrView& m, const double* x, double* y,
                             std::uint32_t rowBegin, std::uint32_t rowEnd);

/// Width-1 masked gather: frozen rows (set bit in `maskWords`) copy x and
/// skip their gather outright — the legacy bounded-until work profile.
using MaskedRowGatherFn = void (*)(const CsrView& m, const double* x,
                                   const std::uint64_t* maskWords, double* y,
                                   std::uint32_t rowBegin,
                                   std::uint32_t rowEnd);

struct KernelSet {
  PanelGatherFn panelGather;
  RowGatherFn rowGather;
  MaskedRowGatherFn maskedRowGather;
  std::size_t lanes;  ///< doubles per vector register
  bool compiled;      ///< false = scalar stand-in (TU built without the ISA)
};

/// Per-target sets. A target whose TU was compiled without its ISA returns
/// the scalar kernels with compiled = false, so dispatch can never execute
/// an instruction the binary wasn't built for.
[[nodiscard]] const KernelSet& scalarKernels();
[[nodiscard]] const KernelSet& sse2Kernels();
[[nodiscard]] const KernelSet& avx2Kernels();

/// Scalar kernels flagged compiled = false — what an ISA-less target TU
/// returns so dispatch degrades safely.
[[nodiscard]] const KernelSet& scalarStandIn();

/// The set a resolved target runs (scalar for anything not compiled in).
[[nodiscard]] const KernelSet& kernelsFor(SimdTarget target);

// ---------------------------------------------------------------- templates

/// Panel gather over a lanes policy. Whole vectors cover the leading
/// lane-multiple of the panel; the remaining columns run in scalar tail
/// accumulators. Per column the accumulation is acc_j += val[e] * xs[j] in
/// ascending-entry order — identical to the scalar strip loop, vectorized
/// or not — and the masked writeback only SELECTS between already-computed
/// values, so outputs are bit-identical across every policy.
template <class Lanes>
void panelGatherImpl(const CsrView& m, const double* X, std::size_t k,
                     std::size_t j0, std::size_t width,
                     const std::uint64_t* const* maskWords, double* Y,
                     std::uint32_t rowBegin, std::uint32_t rowEnd) {
  constexpr std::size_t L = Lanes::kLanes;
  static_assert(kMaxPanelColumns % L == 0);
  const std::size_t nv = width / L;          // whole vectors
  const std::size_t tailBegin = nv * L;      // first scalar-tail column
  for (std::uint32_t r = rowBegin; r < rowEnd; ++r) {
    typename Lanes::Vec vacc[kMaxPanelColumns / L];
    for (std::size_t q = 0; q < nv; ++q) vacc[q] = Lanes::zero();
    double tacc[L > 1 ? L - 1 : 1] = {};
    for (std::uint64_t e = m.rowPtr[r]; e < m.rowPtr[r + 1]; ++e) {
      const double* xs = X + static_cast<std::size_t>(m.col[e]) * k + j0;
      const double v = m.val[e];
      const typename Lanes::Vec vv = Lanes::broadcast(v);
      for (std::size_t q = 0; q < nv; ++q) {
        vacc[q] = Lanes::add(vacc[q], Lanes::mul(vv, Lanes::loadu(xs + q * L)));
      }
      for (std::size_t j = tailBegin; j < width; ++j) {
        tacc[j - tailBegin] += v * xs[j];
      }
    }
    double acc[kMaxPanelColumns];
    for (std::size_t q = 0; q < nv; ++q) Lanes::storeu(acc + q * L, vacc[q]);
    for (std::size_t j = tailBegin; j < width; ++j) {
      acc[j] = tacc[j - tailBegin];
    }
    const std::size_t base = static_cast<std::size_t>(r) * k + j0;
    double* out = Y + base;
    if (maskWords == nullptr) {
      for (std::size_t j = 0; j < width; ++j) out[j] = acc[j];
    } else {
      const double* xr = X + base;
      const std::size_t word = r >> 6;
      const unsigned bit = r & 63u;
      for (std::size_t j = 0; j < width; ++j) {
        out[j] = ((maskWords[j][word] >> bit) & 1u) != 0 ? xr[j] : acc[j];
      }
    }
  }
}

/// Row gathers over a per-row reduction policy (Row::gather performs the
/// scalar-order accumulation of one row, possibly with vector multiplies
/// whose lane results are added back in ascending-entry order).
template <class Row>
void rowGatherImpl(const CsrView& m, const double* x, double* y,
                   std::uint32_t rowBegin, std::uint32_t rowEnd) {
  for (std::uint32_t r = rowBegin; r < rowEnd; ++r) {
    y[r] = Row::gather(m, x, m.rowPtr[r], m.rowPtr[r + 1]);
  }
}

template <class Row>
void maskedRowGatherImpl(const CsrView& m, const double* x,
                         const std::uint64_t* maskWords, double* y,
                         std::uint32_t rowBegin, std::uint32_t rowEnd) {
  for (std::uint32_t r = rowBegin; r < rowEnd; ++r) {
    if (((maskWords[r >> 6] >> (r & 63u)) & 1u) != 0) {
      y[r] = x[r];  // frozen: skip the gather, the result would be discarded
      continue;
    }
    y[r] = Row::gather(m, x, m.rowPtr[r], m.rowPtr[r + 1]);
  }
}

}  // namespace mimostat::la::detail
