// la::spmm — the one sparse matrix product every numeric path runs on.
//
//   Side::kRight:  Y = A X    (bounded value iteration, the X operator)
//   Side::kLeft:   Y = X^T A  (transient propagation, power iteration)
//
// X and Y are row-major tiles of k vectors: vector j of row s at X[s*k + j].
// k == 1 is a plain vector; k == 0 is a valid empty tile. A left product
// gathers over the matrix's resident stable transpose.
//
// Optional per-column masks (one packed la::BitVector of numRows bits per
// column) freeze entries: wherever masks[j] has bit s set, Y[s*k + j] keeps
// X[s*k + j] instead of the product. This is the update shape of bounded
// until (psi states frozen at 1.0, !phi states at 0.0), so k bounded
// formulas advance as k columns of one traversal per step. Masking only
// selects between already-computed values; an all-zero BitVector is an
// unmasked column. Masked products require a square matrix.
//
// Determinism. Every kernel is a row gather over the matrix's fixed block
// table: each output row is produced by exactly one task with a fixed
// accumulation order, so results are bit-identical sequentially, at any
// thread count and on every SIMD target. Vector lanes run across the k
// columns of one row, never across a row's nonzeros, and FMA stays off, so
// each column's floating-point sequence is that of its own scalar loop. A
// k-column product therefore equals k single-column products bit for bit.
//
// A left product reproduces the source-major scatter loop
//   for s: if (x[s] != 0) for (c, v) in row s: y[c] += x[s] * v
// bit for bit: the transpose lists each column's sources in ascending
// order, the scatter's accumulation order. The gather does not skip zero
// sources; a skipped term is x * (+-0.0) = +-0.0, and adding it can change
// an accumulator's bits only when the accumulator is -0.0 and the term
// +0.0. An accumulator becomes -0.0 only from negative-zero terms, i.e.
// only when A holds negative values or X holds -0.0 — never the case for
// stochastic matrices, distributions and value vectors.
//
// A left, k == 1, unmasked product whose input has at most n/64 + 1 nonzeros
// (a point mass: the first transient steps, power iteration's start) runs
// that scatter directly over the support rows instead of gathering over
// every nonzero. It is chosen from the input alone and returns the same
// bits.
//
// Every gather dispatches to a SIMD target (la/simd.hpp: scalar, SSE2 or
// AVX2; Exec::simd or MIMOSTAT_SIMD forces one). k > 1 tiles the columns
// into lane-aligned panels (one CSR traversal per panel, L2-sized when that
// keeps a panel's X slice resident) and, when parallel, fans out a
// row-block x column-panel task grid. `stats` (optional) receives the
// call's panel count and target; the sparse scatter reports one scalar
// panel.
#pragma once

#include <cstddef>
#include <vector>

#include "la/bit_vector.hpp"
#include "la/csr_matrix.hpp"
#include "la/exec.hpp"
#include "la/simd.hpp"

namespace mimostat::la {

/// Which side of A the tile multiplies from.
enum class Side { kRight, kLeft };

/// Y = A X (kRight: X has numCols rows, Y numRows) or Y = X^T A (kLeft: X
/// has numRows rows, Y numCols), k columns each, Y resized. `masks`, when
/// given, holds k BitVectors of numRows bits.
void spmm(const CsrMatrix& A, const std::vector<double>& X, std::size_t k,
          std::vector<double>& Y, const Exec& exec = {},
          Side side = Side::kRight,
          const std::vector<BitVector>* masks = nullptr,
          SpmmStats* stats = nullptr);

}  // namespace mimostat::la
