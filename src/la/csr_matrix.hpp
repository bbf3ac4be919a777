// la::CsrMatrix — the owned sparse-matrix type every numeric backend runs on.
//
// Compressed sparse row storage (rowPtr / colIdx / values) extracted out of
// dtmc::ExplicitDtmc so transient propagation, steady-state solving and the
// unbounded-until linear systems all share one matrix layer. Two layout
// features matter to the kernels in la/spmv.hpp and la/solver.hpp:
//
//   1. Block table: rows are partitioned into contiguous blocks of roughly
//      kBlockNnz nonzeros each. Blocks are the unit of parallel work — the
//      table depends only on the matrix (never on thread count), so a
//      row-partitioned kernel assigns every output row to exactly one task
//      and produces bit-identical results at any pool size.
//   2. Shared pattern: the row pointers, columns and block table sit in one
//      immutable Pattern that copies and fromPattern() share, so matrices
//      that differ only in their values (a re-valued design, see
//      dtmc::revalue) hold one pattern between them.
//   3. Stable transpose, built on first use: left products (x^T A, the
//      transient hot path) and backward graph walks (Prob0/Prob1) need
//      column-major access; nothing else does. transposed() builds it once
//      (std::call_once, so concurrent checkers share one build) with a
//      stable counting sort, so each transpose row lists its sources in
//      ascending (row, slot) order — exactly the accumulation order of the
//      legacy scatter loop, which is what makes the gather kernel
//      bit-identical to it. A matrix only ever quotiented never builds one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace mimostat::la {

class CsrMatrix {
 public:
  /// Nonzeros per parallel block (fixed: block boundaries must not depend on
  /// thread count or results would not be bit-stable across pool sizes).
  static constexpr std::uint64_t kBlockNnz = 1ull << 14;

  /// Everything but the values: row pointers, columns and block table.
  struct Pattern {
    std::vector<std::uint64_t> rowPtr{0};
    std::vector<std::uint32_t> col;
    std::uint32_t numCols = 0;
    std::vector<std::uint32_t> blockStart{0, 0};

    /// Resident bytes of the arrays and the block table.
    [[nodiscard]] std::uint64_t approxBytes() const {
      return rowPtr.size() * sizeof(std::uint64_t) +
             (col.size() + blockStart.size()) * sizeof(std::uint32_t);
    }
  };

  CsrMatrix();

  /// Take ownership of CSR arrays. rowPtr.size() == numRows + 1 and
  /// rowPtr.back() == col.size() == val.size() are asserted. The transpose
  /// (with its own block table) waits for the first transposed().
  static CsrMatrix fromCsr(std::vector<std::uint64_t> rowPtr,
                           std::vector<std::uint32_t> col,
                           std::vector<double> val, std::uint32_t numCols);
  /// The pattern of those arrays, with its block table.
  static std::shared_ptr<const Pattern> makePattern(
      std::vector<std::uint64_t> rowPtr, std::vector<std::uint32_t> col,
      std::uint32_t numCols);
  /// `val` on a shared pattern (one value per column entry, asserted).
  static CsrMatrix fromPattern(std::shared_ptr<const Pattern> pattern,
                               std::vector<double> val);

  [[nodiscard]] std::uint32_t numRows() const {
    return static_cast<std::uint32_t>(pattern_->rowPtr.size() - 1);
  }
  [[nodiscard]] std::uint32_t numCols() const { return pattern_->numCols; }
  [[nodiscard]] std::uint64_t numNonZeros() const { return val_.size(); }

  [[nodiscard]] const std::shared_ptr<const Pattern>& pattern() const {
    return pattern_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& rowPtr() const {
    return pattern_->rowPtr;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& col() const {
    return pattern_->col;
  }
  [[nodiscard]] const std::vector<double>& val() const { return val_; }

  /// The transpose, built by the first call (thread-safe; copies share it).
  /// Throws std::logic_error on the transpose itself (it is not recursive)
  /// and on a default-constructed matrix.
  [[nodiscard]] const CsrMatrix& transposed() const;

  // --- block table (parallel row partition; original orientation only) ---
  [[nodiscard]] std::size_t blockCount() const {
    return pattern_->blockStart.size() - 1;
  }
  [[nodiscard]] std::uint32_t blockBegin(std::size_t b) const {
    return pattern_->blockStart[b];
  }
  [[nodiscard]] std::uint32_t blockEnd(std::size_t b) const {
    return pattern_->blockStart[b + 1];
  }

  /// Resident bytes of the CSR arrays and block table (the pattern's
  /// included, shared or not), plus the transpose's whether or not it is
  /// built yet (its block table at its upper bound) — the unit the engine's
  /// model-cache byte accounting uses.
  [[nodiscard]] std::uint64_t approxBytes() const;

 private:
  [[nodiscard]] CsrMatrix buildTranspose() const;

  std::shared_ptr<const Pattern> pattern_;
  std::vector<double> val_;
  /// The transpose and the flag that builds it once. Shared so a copy
  /// reuses the transpose instead of doubling it — note a copy still
  /// deep-copies this matrix's values. Null on a transpose.
  struct Transpose {
    std::once_flag built;
    std::unique_ptr<const CsrMatrix> matrix;
  };
  std::shared_ptr<Transpose> transpose_;
};

}  // namespace mimostat::la
