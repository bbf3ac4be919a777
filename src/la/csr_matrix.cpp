#include "la/csr_matrix.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace mimostat::la {

CsrMatrix::CsrMatrix() {
  static const auto empty = std::make_shared<const Pattern>();
  pattern_ = empty;
}

CsrMatrix CsrMatrix::fromCsr(std::vector<std::uint64_t> rowPtr,
                             std::vector<std::uint32_t> col,
                             std::vector<double> val, std::uint32_t numCols) {
  return fromPattern(makePattern(std::move(rowPtr), std::move(col), numCols),
                     std::move(val));
}

std::shared_ptr<const CsrMatrix::Pattern> CsrMatrix::makePattern(
    std::vector<std::uint64_t> rowPtr, std::vector<std::uint32_t> col,
    std::uint32_t numCols) {
  assert(!rowPtr.empty());
  assert(rowPtr.back() == col.size());
  // The block table: contiguous rows of about kBlockNnz nonzeros.
  const auto n = static_cast<std::uint32_t>(rowPtr.size() - 1);
  std::vector<std::uint32_t> blockStart{0};
  std::uint64_t acc = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    acc += rowPtr[r + 1] - rowPtr[r];
    if (acc >= kBlockNnz && r + 1 < n) {
      blockStart.push_back(r + 1);
      acc = 0;
    }
  }
  blockStart.push_back(n);
  return std::make_shared<const Pattern>(Pattern{
      std::move(rowPtr), std::move(col), numCols, std::move(blockStart)});
}

CsrMatrix CsrMatrix::fromPattern(std::shared_ptr<const Pattern> pattern,
                                 std::vector<double> val) {
  assert(pattern->col.size() == val.size());
  CsrMatrix m;
  m.pattern_ = std::move(pattern);
  m.val_ = std::move(val);
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

CsrMatrix CsrMatrix::buildTranspose() const {
  const std::uint32_t n = numRows();
  const std::vector<std::uint64_t>& rowPtr = pattern_->rowPtr;
  const std::vector<std::uint32_t>& col = pattern_->col;
  std::vector<std::uint64_t> tRowPtr(std::size_t{numCols()} + 1, 0);
  for (const std::uint32_t c : col) ++tRowPtr[c + 1];
  for (std::uint32_t c = 0; c < numCols(); ++c) tRowPtr[c + 1] += tRowPtr[c];
  std::vector<std::uint32_t> tCol(col.size());
  std::vector<double> tVal(val_.size());
  // Stable counting sort: scanning (row, slot) ascending means every
  // transpose row ends up source-ordered exactly like the legacy scatter
  // loop's contribution order — the bit-identity contract of left la::spmm.
  std::vector<std::uint64_t> cursor(tRowPtr.begin(), tRowPtr.end() - 1);
  for (std::uint32_t r = 0; r < n; ++r) {
    for (std::uint64_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
      const std::uint64_t slot = cursor[col[k]]++;
      tCol[slot] = r;
      tVal[slot] = val_[k];
    }
  }
  CsrMatrix t =
      fromCsr(std::move(tRowPtr), std::move(tCol), std::move(tVal), n);
  t.transpose_ = nullptr;  // a transpose has none
  return t;
}

std::uint64_t CsrMatrix::approxBytes() const {
  std::uint64_t bytes = pattern_->approxBytes() + val_.size() * sizeof(double);
  if (transpose_) {
    // Every transpose block but the last holds at least kBlockNnz entries.
    bytes += (std::uint64_t{numCols()} + 1) * sizeof(std::uint64_t) +
             numNonZeros() * (sizeof(std::uint32_t) + sizeof(double)) +
             (numNonZeros() / kBlockNnz + 2) * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace mimostat::la
