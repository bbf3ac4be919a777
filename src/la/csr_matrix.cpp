#include "la/csr_matrix.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace mimostat::la {

CsrMatrix CsrMatrix::fromCsr(std::vector<std::uint64_t> rowPtr,
                             std::vector<std::uint32_t> col,
                             std::vector<double> val, std::uint32_t numCols) {
  assert(!rowPtr.empty());
  assert(rowPtr.back() == col.size());
  assert(col.size() == val.size());
  CsrMatrix m;
  m.rowPtr_ = std::move(rowPtr);
  m.col_ = std::move(col);
  m.val_ = std::move(val);
  m.numCols_ = numCols;
  m.buildBlocks();
  m.transpose_ = std::make_shared<Transpose>();
  return m;
}

const CsrMatrix& CsrMatrix::transposed() const {
  if (transpose_ == nullptr) {
    throw std::logic_error(
        "la::CsrMatrix: no transpose (a transpose and a default-constructed "
        "matrix have none)");
  }
  std::call_once(transpose_->built, [this] {
    const obs::Span span("la.transpose");
    transpose_->matrix = std::make_unique<const CsrMatrix>(buildTranspose());
  });
  return *transpose_->matrix;
}

void CsrMatrix::buildBlocks() {
  const std::uint32_t n = numRows();
  blockStart_.assign(1, 0);
  std::uint64_t acc = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    acc += rowPtr_[r + 1] - rowPtr_[r];
    if (acc >= kBlockNnz && r + 1 < n) {
      blockStart_.push_back(r + 1);
      acc = 0;
    }
  }
  blockStart_.push_back(n);
}

CsrMatrix CsrMatrix::buildTranspose() const {
  const std::uint32_t n = numRows();
  CsrMatrix t;
  t.numCols_ = n;
  t.rowPtr_.assign(static_cast<std::size_t>(numCols_) + 1, 0);
  for (std::uint64_t k = 0; k < col_.size(); ++k) ++t.rowPtr_[col_[k] + 1];
  for (std::uint32_t c = 0; c < numCols_; ++c) t.rowPtr_[c + 1] += t.rowPtr_[c];
  t.col_.resize(col_.size());
  t.val_.resize(val_.size());
  // Stable counting sort: scanning (row, slot) ascending means every
  // transpose row ends up source-ordered exactly like the legacy scatter
  // loop's contribution order — the bit-identity contract of left la::spmm.
  std::vector<std::uint64_t> cursor(t.rowPtr_.begin(), t.rowPtr_.end() - 1);
  for (std::uint32_t r = 0; r < n; ++r) {
    for (std::uint64_t k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k) {
      const std::uint64_t slot = cursor[col_[k]]++;
      t.col_[slot] = r;
      t.val_[slot] = val_[k];
    }
  }
  t.buildBlocks();
  return t;
}

std::uint64_t CsrMatrix::approxBytes() const {
  std::uint64_t bytes = rowPtr_.size() * sizeof(std::uint64_t) +
                        col_.size() * sizeof(std::uint32_t) +
                        val_.size() * sizeof(double) +
                        blockStart_.size() * sizeof(std::uint32_t);
  if (transpose_) {
    // Every transpose block but the last holds at least kBlockNnz entries.
    bytes += (std::uint64_t{numCols_} + 1) * sizeof(std::uint64_t) +
             numNonZeros() * (sizeof(std::uint32_t) + sizeof(double)) +
             (numNonZeros() / kBlockNnz + 2) * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace mimostat::la
