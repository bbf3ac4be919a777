// la:: subsystem tests: la::spmm against dense references and the verbatim
// legacy loops of legacy_loops.hpp (bitwise), solver convergence on known
// chains, bit-identical determinism at 1/2/8 pool threads, and empty-row /
// absorbing-state edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "dtmc/builder.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "la/csr_matrix.hpp"
#include "la/exec.hpp"
#include "la/simd.hpp"
#include "la/solver.hpp"
#include "la/spmv.hpp"
#include "legacy_loops.hpp"
#include "obs/metrics.hpp"
#include "mc/checker.hpp"
#include "mc/steady.hpp"
#include "mc/transient.hpp"
#include "mc/unbounded.hpp"
#include "test_models.hpp"
#include "util/rng.hpp"

namespace mimostat {
namespace {

la::Exec poolExec(engine::ThreadPool& pool,
                  std::uint64_t thresholdNnz = 1) {
  la::Exec exec;
  exec.runner = engine::laRunnerFor(pool);
  exec.parallelThresholdNnz = thresholdNnz;
  return exec;
}

bool bitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

struct DenseCsr {
  std::vector<std::vector<double>> dense;
  la::CsrMatrix csr;
};

/// Random matrix with `fanout` draws per row; rows whose index is in
/// `emptyRows` get no entries at all. Not normalized (kernels don't care).
DenseCsr randomMatrix(std::uint32_t n, std::uint32_t fanout,
                      std::uint64_t seed,
                      const std::vector<std::uint32_t>& emptyRows = {}) {
  util::Xoshiro256 rng(seed);
  DenseCsr out;
  out.dense.assign(n, std::vector<double>(n, 0.0));
  for (std::uint32_t i = 0; i < n; ++i) {
    bool skip = false;
    for (const auto e : emptyRows) skip = skip || e == i;
    if (skip) continue;
    for (std::uint32_t k = 0; k < fanout; ++k) {
      const auto j = static_cast<std::uint32_t>(rng.nextBounded(n));
      out.dense[i][j] += rng.nextDouble() + 0.05;
    }
  }
  std::vector<std::uint64_t> rowPtr{0};
  std::vector<std::uint32_t> col;
  std::vector<double> val;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      if (out.dense[i][j] != 0.0) {
        col.push_back(j);
        val.push_back(out.dense[i][j]);
      }
    }
    rowPtr.push_back(col.size());
  }
  out.csr = la::CsrMatrix::fromCsr(std::move(rowPtr), std::move(col),
                                   std::move(val), n);
  return out;
}

std::vector<double> randomVector(std::uint32_t n, std::uint64_t seed,
                                 double zeroFraction = 0.0) {
  util::Xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) {
    v = rng.nextDouble() < zeroFraction ? 0.0 : rng.nextDouble() - 0.25;
  }
  return x;
}

using test::legacyGatherRight;
using test::legacyScatterLeft;

// ------------------------------------------------------------- CsrMatrix

TEST(CsrMatrix, BlocksPartitionRowsInOrder) {
  // 3000 rows x 8 nnz = 24000 nnz > kBlockNnz -> several blocks.
  const DenseCsr m = randomMatrix(3000, 8, 11);
  const la::CsrMatrix& csr = m.csr;
  ASSERT_GE(csr.blockCount(), 2u);
  EXPECT_EQ(csr.blockBegin(0), 0u);
  for (std::size_t b = 0; b + 1 < csr.blockCount(); ++b) {
    EXPECT_EQ(csr.blockEnd(b), csr.blockBegin(b + 1));
    EXPECT_LT(csr.blockBegin(b), csr.blockEnd(b));
  }
  EXPECT_EQ(csr.blockEnd(csr.blockCount() - 1), csr.numRows());
}

TEST(CsrMatrix, TransposeRoundTripsEntries) {
  const DenseCsr m = randomMatrix(40, 4, 17);
  const la::CsrMatrix& t = m.csr.transposed();
  EXPECT_EQ(t.numRows(), m.csr.numCols());
  EXPECT_EQ(t.numCols(), m.csr.numRows());
  EXPECT_EQ(t.numNonZeros(), m.csr.numNonZeros());
  // Every dense entry appears exactly once in the transpose, and transpose
  // rows list sources in ascending order (the stable-sort contract).
  for (std::uint32_t c = 0; c < t.numRows(); ++c) {
    std::int64_t lastSource = -1;
    for (std::uint64_t k = t.rowPtr()[c]; k < t.rowPtr()[c + 1]; ++k) {
      const std::uint32_t r = t.col()[k];
      EXPECT_GT(static_cast<std::int64_t>(r), lastSource);
      lastSource = r;
      EXPECT_EQ(t.val()[k], m.dense[r][c]);
    }
  }
  EXPECT_THROW(static_cast<void>(t.transposed()),
               std::logic_error);  // not recursive
}

TEST(CsrMatrix, ApproxBytesCountsTranspose) {
  const DenseCsr m = randomMatrix(100, 4, 3);
  const std::uint64_t withT = m.csr.approxBytes();
  // The transpose has no transpose of its own, so its bytes are the
  // single-orientation size; the matrix counts both.
  const std::uint64_t transposeOnly = m.csr.transposed().approxBytes();
  EXPECT_GT(withT, transposeOnly);
  EXPECT_GT(transposeOnly, 0u);
}

/// The transpose la::CsrMatrix::fromCsr built eagerly before it waited for
/// first use, verbatim: a stable counting sort over (row, slot), then the
/// block table over its rows.
struct EagerTranspose {
  std::vector<std::uint64_t> rowPtr;
  std::vector<std::uint32_t> col;
  std::vector<double> val;
  std::vector<std::uint32_t> blockStart;
};

EagerTranspose eagerTranspose(const la::CsrMatrix& m) {
  const std::uint32_t n = m.numRows();
  EagerTranspose t;
  t.rowPtr.assign(static_cast<std::size_t>(m.numCols()) + 1, 0);
  for (std::uint64_t k = 0; k < m.col().size(); ++k) ++t.rowPtr[m.col()[k] + 1];
  for (std::uint32_t c = 0; c < m.numCols(); ++c) {
    t.rowPtr[c + 1] += t.rowPtr[c];
  }
  t.col.resize(m.col().size());
  t.val.resize(m.val().size());
  std::vector<std::uint64_t> cursor(t.rowPtr.begin(), t.rowPtr.end() - 1);
  for (std::uint32_t r = 0; r < n; ++r) {
    for (std::uint64_t k = m.rowPtr()[r]; k < m.rowPtr()[r + 1]; ++k) {
      const std::uint64_t slot = cursor[m.col()[k]]++;
      t.col[slot] = r;
      t.val[slot] = m.val()[k];
    }
  }
  t.blockStart.assign(1, 0);
  std::uint64_t acc = 0;
  for (std::uint32_t r = 0; r < m.numCols(); ++r) {
    acc += t.rowPtr[r + 1] - t.rowPtr[r];
    if (acc >= la::CsrMatrix::kBlockNnz && r + 1 < m.numCols()) {
      t.blockStart.push_back(r + 1);
      acc = 0;
    }
  }
  t.blockStart.push_back(m.numCols());
  return t;
}

TEST(CsrMatrix, ConcurrentFirstUseBuildsOneTranspose) {
  // Several blocks on both sides. Half the threads ask the matrix, half a
  // copy made before the first use: copies share the transpose.
  const DenseCsr m = randomMatrix(3000, 8, 23);
  const la::CsrMatrix copy = m.csr;
  std::vector<const la::CsrMatrix*> got(8, nullptr);
  engine::ThreadPool pool(got.size());
  la::runTasks(engine::laRunnerFor(pool), got.size(), [&](std::size_t t) {
    got[t] = &(t % 2 == 0 ? m.csr : copy).transposed();
  });
  for (const la::CsrMatrix* t : got) EXPECT_EQ(t, got[0]);

  const EagerTranspose want = eagerTranspose(m.csr);
  const la::CsrMatrix& t = *got[0];
  EXPECT_EQ(t.numCols(), m.csr.numRows());
  EXPECT_EQ(t.rowPtr(), want.rowPtr);
  EXPECT_EQ(t.col(), want.col);
  EXPECT_TRUE(bitEqual(t.val(), want.val));
  ASSERT_EQ(t.blockCount() + 1, want.blockStart.size());
  for (std::size_t b = 0; b < t.blockCount(); ++b) {
    EXPECT_EQ(t.blockBegin(b), want.blockStart[b]);
    EXPECT_EQ(t.blockEnd(b), want.blockStart[b + 1]);
  }
}

TEST(CsrMatrix, ApproxBytesCountsTheTransposeBeforeItIsBuilt) {
  const DenseCsr m = randomMatrix(3000, 8, 29);
  const la::CsrMatrix& a = m.csr;
  const std::uint64_t before = a.approxBytes();
  const la::CsrMatrix& t = a.transposed();
  EXPECT_EQ(a.approxBytes(), before);
  // The count covers the built transpose: its arrays exactly, its block
  // table at the bound of one block per kBlockNnz entries.
  const std::uint64_t own =
      a.rowPtr().size() * sizeof(std::uint64_t) +
      a.numNonZeros() * (sizeof(std::uint32_t) + sizeof(double)) +
      (a.blockCount() + 1) * sizeof(std::uint32_t);
  ASSERT_GE(before - own, t.approxBytes());
  EXPECT_LE(before - own - t.approxBytes(),
            (a.numNonZeros() / la::CsrMatrix::kBlockNnz + 2) *
                sizeof(std::uint32_t));
}

TEST(CsrMatrix, EmptyMatrix) {
  const la::CsrMatrix empty;
  EXPECT_EQ(empty.numRows(), 0u);
  EXPECT_EQ(empty.numNonZeros(), 0u);
  EXPECT_EQ(empty.blockCount(), 1u);
}

// ------------------------------------------------------------------ SpMV

TEST(Spmv, MatchesDenseReference) {
  const std::uint32_t n = 60;
  const DenseCsr m = randomMatrix(n, 5, 23);
  const std::vector<double> x = randomVector(n, 5);
  std::vector<double> y;
  la::spmm(m.csr, x, 1, y);
  for (std::uint32_t r = 0; r < n; ++r) {
    double expect = 0.0;
    for (std::uint32_t c = 0; c < n; ++c) expect += m.dense[r][c] * x[c];
    EXPECT_NEAR(y[r], expect, 1e-12) << r;
  }
}

TEST(Spmv, RightMatchesLegacyLoopBitwise) {
  const DenseCsr m = randomMatrix(500, 6, 29);
  const std::vector<double> x = randomVector(500, 7, 0.3);
  std::vector<double> y;
  la::spmm(m.csr, x, 1, y);
  EXPECT_TRUE(bitEqual(y, legacyGatherRight(m.csr, x)));
}

TEST(SpmvLeft, MatchesLegacyScatterBitwise) {
  // Zeros in x exercise the skip-zero contract; the scatter loop skipped
  // whole source rows, the transpose gather must skip the same terms.
  const DenseCsr m = randomMatrix(500, 6, 31);
  const std::vector<double> x = randomVector(500, 9, 0.4);
  std::vector<double> y;
  la::spmm(m.csr, x, 1, y, {}, la::Side::kLeft);
  EXPECT_TRUE(bitEqual(y, legacyScatterLeft(m.csr, x)));
}

TEST(SpmvLeft, MatchesDenseReference) {
  const std::uint32_t n = 60;
  const DenseCsr m = randomMatrix(n, 5, 37);
  const std::vector<double> x = randomVector(n, 11);
  std::vector<double> y;
  la::spmm(m.csr, x, 1, y, {}, la::Side::kLeft);
  for (std::uint32_t c = 0; c < n; ++c) {
    double expect = 0.0;
    for (std::uint32_t r = 0; r < n; ++r) expect += x[r] * m.dense[r][c];
    EXPECT_NEAR(y[c], expect, 1e-12) << c;
  }
}

TEST(Spmv, EmptyRowsProduceZeros) {
  const DenseCsr m = randomMatrix(50, 4, 41, /*emptyRows=*/{0, 17, 49});
  const std::vector<double> x = randomVector(50, 13);
  std::vector<double> y;
  la::spmm(m.csr, x, 1, y);
  EXPECT_EQ(y[0], 0.0);
  EXPECT_EQ(y[17], 0.0);
  EXPECT_EQ(y[49], 0.0);
  // Left products through empty rows contribute nothing; states nobody
  // points at (empty transpose rows) come out zero.
  std::vector<double> yl;
  la::spmm(m.csr, x, 1, yl, {}, la::Side::kLeft);
  EXPECT_TRUE(bitEqual(yl, legacyScatterLeft(m.csr, x)));
}

TEST(SpmvLeft, SparseFastPathMatchesGatherBitwise) {
  // A near-point-mass x takes the source-major scatter fast path; it must
  // agree bitwise with the dense gather (forced here by a dense x sharing
  // the same support values) and with the legacy reference.
  const std::uint32_t n = 800;
  const DenseCsr m = randomMatrix(n, 5, 131);
  std::vector<double> pointMass(n, 0.0);
  pointMass[3] = 0.7;
  pointMass[n - 2] = 0.3;
  std::vector<double> y;
  la::spmm(m.csr, pointMass, 1, y, {}, la::Side::kLeft);
  EXPECT_TRUE(bitEqual(y, legacyScatterLeft(m.csr, pointMass)));
  for (std::uint32_t c = 0; c < n; ++c) {
    const double expect =
        0.7 * m.dense[3][c] + 0.3 * m.dense[n - 2][c];
    EXPECT_NEAR(y[c], expect, 1e-12) << c;
  }
}

// ------------------------------------------------------------------ SpMM

TEST(Spmm, MatchesPerVectorSpmvBitwise) {
  const std::uint32_t n = 300;
  const std::size_t k = 5;
  const DenseCsr m = randomMatrix(n, 6, 43);
  std::vector<double> X(static_cast<std::size_t>(n) * k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::vector<double> x = randomVector(n, 100 + j, 0.2);
    for (std::uint32_t s = 0; s < n; ++s) X[s * k + j] = x[s];
  }
  std::vector<double> Y;
  la::spmm(m.csr, X, k, Y);
  std::vector<double> Yl;
  la::spmm(m.csr, X, k, Yl, {}, la::Side::kLeft);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> x(n);
    for (std::uint32_t s = 0; s < n; ++s) x[s] = X[s * k + j];
    std::vector<double> y;
    la::spmm(m.csr, x, 1, y);
    std::vector<double> yl;
    la::spmm(m.csr, x, 1, yl, {}, la::Side::kLeft);
    for (std::uint32_t s = 0; s < n; ++s) {
      EXPECT_EQ(Y[s * k + j], y[s]) << "spmm vector " << j << " state " << s;
      EXPECT_EQ(Yl[s * k + j], yl[s])
          << "left vector " << j << " state " << s;
    }
  }
}

// ----------------------------------------------------------- masked SpMM

/// Pack a legacy row-major n x k byte mask into the kernel's shape: k
/// per-column BitVectors, one bit per row. The byte mask stays the test
/// oracle; this bridge is the only conversion.
std::vector<la::BitVector> columnMasks(const std::vector<std::uint8_t>& mask,
                                       std::uint32_t n, std::size_t k) {
  std::vector<la::BitVector> cols(k, la::BitVector(n));
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::size_t j = 0; j < k; ++j) {
      if (mask[s * k + j] != 0) cols[j].set(s);
    }
  }
  return cols;
}

/// Reference la::spmm from the verbatim legacy loops: column j of X through
/// the row gather (right) or the source-major scatter (left); wherever
/// `mask` (row-major n x k bytes, optional) is set, the entry keeps X.
std::vector<double> legacySpmm(const la::CsrMatrix& m,
                               const std::vector<double>& X, std::size_t k,
                               la::Side side,
                               const std::vector<std::uint8_t>* mask) {
  const bool right = side == la::Side::kRight;
  const std::uint32_t inRows = right ? m.numCols() : m.numRows();
  const std::uint32_t outRows = right ? m.numRows() : m.numCols();
  std::vector<double> Y(static_cast<std::size_t>(outRows) * k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> x(inRows);
    for (std::uint32_t s = 0; s < inRows; ++s) x[s] = X[s * k + j];
    const std::vector<double> y =
        right ? legacyGatherRight(m, x) : legacyScatterLeft(m, x);
    for (std::uint32_t s = 0; s < outRows; ++s) {
      const bool frozen = mask != nullptr && (*mask)[s * k + j] != 0;
      Y[s * k + j] = frozen ? X[s * k + j] : y[s];
    }
  }
  return Y;
}

TEST(SpmmMasked, FrozenEntriesKeepXAndLiveEntriesMatchSpmvBitwise) {
  const std::uint32_t n = 300;
  const std::size_t k = 5;
  const DenseCsr m = randomMatrix(n, 6, 211);
  std::vector<double> X(static_cast<std::size_t>(n) * k);
  std::vector<std::uint8_t> mask(X.size());
  util::Xoshiro256 rng(97);
  for (std::size_t i = 0; i < X.size(); ++i) {
    X[i] = rng.nextDouble();
    mask[i] = rng.nextDouble() < 0.3 ? 1 : 0;
  }
  std::vector<double> Y;
  std::vector<la::BitVector> packed = columnMasks(mask, n, k);
  la::spmm(m.csr, X, k, Y, {}, la::Side::kRight, &packed);
  EXPECT_TRUE(
      bitEqual(Y, legacySpmm(m.csr, X, k, la::Side::kRight, &mask)));

  // The all-zero mask degenerates to plain spmm.
  std::fill(mask.begin(), mask.end(), 0);
  std::vector<double> plain;
  la::spmm(m.csr, X, k, plain);
  packed = columnMasks(mask, n, k);
  la::spmm(m.csr, X, k, Y, {}, la::Side::kRight, &packed);
  EXPECT_TRUE(bitEqual(Y, plain));

  // A left masked product freezes over the transpose product the same way.
  std::fill(mask.begin(), mask.end(), 0);
  for (std::size_t i = 0; i < mask.size(); i += 7) mask[i] = 1;
  std::vector<double> leftPlain;
  la::spmm(m.csr, X, k, leftPlain, {}, la::Side::kLeft);
  std::vector<double> leftMasked;
  packed = columnMasks(mask, n, k);
  la::spmm(m.csr, X, k, leftMasked, {}, la::Side::kLeft, &packed);
  for (std::size_t i = 0; i < leftMasked.size(); ++i) {
    const double expect = mask[i] ? X[i] : leftPlain[i];
    EXPECT_EQ(leftMasked[i], expect) << i;
  }
}

TEST(SpmmMasked, BitIdenticalAcrossPoolSizes) {
  const std::uint32_t n = 5000;
  const std::size_t k = 4;
  const DenseCsr m = randomMatrix(n, 8, 223);
  ASSERT_GE(m.csr.blockCount(), 2u);
  std::vector<double> X(static_cast<std::size_t>(n) * k);
  std::vector<std::uint8_t> mask(X.size());
  for (std::size_t i = 0; i < X.size(); ++i) {
    X[i] = static_cast<double>((i * 2654435761u) % 1000) / 997.0;
    mask[i] = (i * 40503u) % 5 == 0 ? 1 : 0;
  }
  const std::vector<la::BitVector> packed = columnMasks(mask, n, k);
  std::vector<double> seq;
  la::spmm(m.csr, X, k, seq, {}, la::Side::kRight, &packed);
  // The packed path must also equal the byte-mask reference exactly.
  EXPECT_TRUE(
      bitEqual(seq, legacySpmm(m.csr, X, k, la::Side::kRight, &mask)));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::ThreadPool pool(threads);
    std::vector<double> Y;
    la::spmm(m.csr, X, k, Y, poolExec(pool), la::Side::kRight, &packed);
    EXPECT_TRUE(bitEqual(Y, seq)) << threads << " threads";
  }
}

// ---------------------------------------------------------- determinism

TEST(Spmv, BitIdenticalAcrossPoolSizes) {
  const DenseCsr m = randomMatrix(5000, 8, 47);  // ~40k nnz -> >1 block
  ASSERT_GE(m.csr.blockCount(), 2u);
  const std::vector<double> x = randomVector(5000, 15, 0.2);
  std::vector<double> seq;
  la::spmm(m.csr, x, 1, seq);
  std::vector<double> seqLeft;
  la::spmm(m.csr, x, 1, seqLeft, {}, la::Side::kLeft);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::ThreadPool pool(threads);
    const la::Exec exec = poolExec(pool);
    std::vector<double> y;
    la::spmm(m.csr, x, 1, y, exec);
    EXPECT_TRUE(bitEqual(y, seq)) << threads << " threads (right)";
    std::vector<double> yl;
    la::spmm(m.csr, x, 1, yl, exec, la::Side::kLeft);
    EXPECT_TRUE(bitEqual(yl, seqLeft)) << threads << " threads (left)";
  }
}

TEST(Spmm, BitIdenticalAcrossPoolSizes) {
  const std::uint32_t n = 5000;
  const std::size_t k = 3;
  const DenseCsr m = randomMatrix(n, 8, 53);
  std::vector<double> X(static_cast<std::size_t>(n) * k);
  for (std::size_t i = 0; i < X.size(); ++i) {
    X[i] = static_cast<double>((i * 2654435761u) % 1000) / 997.0;
  }
  std::vector<double> seq;
  la::spmm(m.csr, X, k, seq, {}, la::Side::kLeft);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::ThreadPool pool(threads);
    std::vector<double> Y;
    la::spmm(m.csr, X, k, Y, poolExec(pool), la::Side::kLeft);
    EXPECT_TRUE(bitEqual(Y, seq)) << threads << " threads";
  }
}

// ------------------------------------------ la::spmm vs the legacy loops

/// Random sparse n x n matrix, `fanout` draws per row (duplicates summed),
/// built without a dense copy.
la::CsrMatrix randomSparse(std::uint32_t n, std::uint32_t fanout,
                           std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> rowPtr{0};
  std::vector<std::uint32_t> col;
  std::vector<double> val;
  std::map<std::uint32_t, double> row;
  for (std::uint32_t i = 0; i < n; ++i) {
    row.clear();
    for (std::uint32_t k = 0; k < fanout; ++k) {
      const auto j = static_cast<std::uint32_t>(rng.nextBounded(n));
      row[j] += rng.nextDouble() + 0.05;
    }
    for (const auto& [j, v] : row) {
      col.push_back(j);
      val.push_back(v);
    }
    rowPtr.push_back(col.size());
  }
  return la::CsrMatrix::fromCsr(std::move(rowPtr), std::move(col),
                                std::move(val), n);
}

/// (side, masked, k, threads); threads == 0 runs without a runner.
using SpmmShape = std::tuple<la::Side, bool, std::size_t, std::size_t>;

class SpmmGrid : public ::testing::TestWithParam<SpmmShape> {};

TEST_P(SpmmGrid, MatchesLegacyLoopsBitwise) {
  const auto [side, masked, k, threads] = GetParam();
  // 3000 rows x 8 draws: two row blocks each way, so pooled runs fan out.
  static const la::CsrMatrix A = randomSparse(3000, 8, 0x5eedull);
  ASSERT_GE(A.blockCount(), 2u);
  ASSERT_GE(A.transposed().blockCount(), 2u);
  const std::uint32_t n = A.numRows();

  std::optional<engine::ThreadPool> pool;
  la::Exec exec;
  if (threads > 0) {
    pool.emplace(threads);
    exec = poolExec(*pool);
  }
  util::Xoshiro256 rng(1000 + k);
  std::vector<double> X(static_cast<std::size_t>(n) * k);
  std::vector<std::uint8_t> mask(X.size());
  for (std::size_t i = 0; i < X.size(); ++i) {
    X[i] = rng.nextDouble() < 0.2 ? 0.0 : rng.nextDouble();
    mask[i] = rng.nextBounded(4) == 0 ? 1 : 0;
  }
  const std::vector<la::BitVector> packed = columnMasks(mask, n, k);
  const auto run = [&](const std::vector<double>& tile) {
    std::vector<double> Y(3, -1.0);  // stale contents must not leak
    la::spmm(A, tile, k, Y, exec, side, masked ? &packed : nullptr);
    return Y;
  };
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto dispatches = [&] {
    return registry.snapshot().counterValue("la.simd.dispatch");
  };

  const std::uint64_t before = dispatches();
  EXPECT_TRUE(bitEqual(run(X), legacySpmm(A, X, k, side,
                                          masked ? &mask : nullptr)));
  // A dense tile always runs the dispatched gather.
  EXPECT_GT(dispatches(), before);

  if (side == la::Side::kLeft && !masked && k == 1) {
    // A point mass takes the source-major scatter, which skips SIMD
    // dispatch, and still returns the legacy bits.
    std::vector<double> pointMass(n, 0.0);
    pointMass[7] = 0.75;
    pointMass[n - 3] = 0.25;
    const std::uint64_t scatterBefore = dispatches();
    const std::vector<double> Y = run(pointMass);
    EXPECT_EQ(dispatches(), scatterBefore);
    EXPECT_TRUE(bitEqual(Y, legacySpmm(A, pointMass, 1, side, nullptr)));
  }
}

std::string spmmShapeName(const ::testing::TestParamInfo<SpmmShape>& info) {
  const auto [side, masked, k, threads] = info.param;
  return std::string(side == la::Side::kRight ? "Right" : "Left") +
         (masked ? "Masked" : "Plain") + "K" + std::to_string(k) +
         (threads == 0 ? std::string("Seq")
                       : "Threads" + std::to_string(threads));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmmGrid,
    ::testing::Combine(::testing::Values(la::Side::kRight, la::Side::kLeft),
                       ::testing::Bool(),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{3}, std::size_t{8}),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{2}, std::size_t{8})),
    spmmShapeName);

TEST(Exec, ThresholdKeepsSmallMatricesSequential) {
  const DenseCsr m = randomMatrix(50, 4, 59);
  bool ran = false;
  la::Exec exec;
  exec.runner = [&ran](std::vector<std::function<void()>> tasks) {
    ran = true;
    for (auto& t : tasks) t();
  };
  exec.parallelThresholdNnz = 1u << 20;  // far above this matrix
  const std::vector<double> x = randomVector(50, 17);
  std::vector<double> y;
  la::spmm(m.csr, x, 1, y, exec);
  EXPECT_FALSE(ran);
  exec.parallelThresholdNnz = 1;
  la::spmm(m.csr, x, 1, y, exec);
  // A single block also stays sequential; only multi-block matrices fan out.
  EXPECT_EQ(ran, m.csr.blockCount() > 1);
}

// --------------------------------------------------------------- solvers

TEST(GaussSeidel, MatchesLegacyValueIterationBitwise) {
  // The legacy mc::unbounded loop, inlined: Gauss-Seidel over undetermined
  // states of P(F top) on a gambler's-ruin chain (interior states hit the
  // top with probability strictly between 0 and 1, so the solver really
  // iterates).
  auto model = test::gamblersRuin(60, 0.45, 30);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto varIdx = d.varLayout().indexOf("s");
  la::BitVector psi(d.numStates());
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (d.varValue(s, varIdx) == 60) psi.set(s);
  }

  const la::BitVector allStates(d.numStates(), true);
  const auto prob0 = mc::prob0States(d, allStates, psi);
  const auto prob1 = mc::prob1States(d, allStates, psi);
  std::vector<double> legacy(d.numStates(), 0.0);
  std::vector<std::uint32_t> undetermined;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (prob1.get(s)) legacy[s] = 1.0;
    if (!prob0.get(s) && !prob1.get(s)) undetermined.push_back(s);
  }
  for (std::uint64_t iter = 0; iter < 1'000'000; ++iter) {
    double maxDelta = 0.0;
    for (const std::uint32_t s : undetermined) {
      double acc = 0.0;
      for (std::uint64_t k = d.rowPtr()[s]; k < d.rowPtr()[s + 1]; ++k) {
        acc += d.val()[k] * legacy[d.col()[k]];
      }
      maxDelta = std::max(maxDelta, std::fabs(acc - legacy[s]));
      legacy[s] = acc;
    }
    if (maxDelta < 1e-12) break;
  }

  const mc::ReachResult reach = mc::reachProb(d, psi);
  ASSERT_TRUE(reach.solver.has_value());
  EXPECT_TRUE(reach.solver->converged);
  EXPECT_GT(reach.solver->iterations, 0u);
  EXPECT_LT(reach.solver->residual, 1e-12);
  EXPECT_TRUE(bitEqual(reach.stateValues, legacy));
}

TEST(GaussSeidel, KnownChainGamblersRuin) {
  // p = 1/2 gambler's ruin on 0..10 from 4: P(hit 10 before 0) = 4/10.
  auto model = test::gamblersRuin(10, 0.5, 4);
  const auto d = dtmc::buildExplicit(model).dtmc;
  la::BitVector psi(d.numStates());
  const auto varIdx = d.varLayout().indexOf("s");
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    if (d.varValue(s, varIdx) == 10) psi.set(s);
  }
  const mc::ReachResult reach = mc::reachProb(d, psi);
  ASSERT_TRUE(reach.solver.has_value());
  ASSERT_TRUE(reach.solver->converged);
  EXPECT_EQ(reach.solver->solver, "gauss-seidel");
  double fromInit = 0.0;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    fromInit += d.initialDistribution()[s] * reach.stateValues[s];
  }
  EXPECT_NEAR(fromInit, 0.4, 1e-9);
}

TEST(Power, MatchesLegacySteadyLoopBitwise) {
  const auto model = test::randomModel(120, 4, 73);
  const auto d = dtmc::buildExplicit(model).dtmc;

  // The pre-refactor mc::steady loop, inlined.
  std::vector<double> pi = d.initialDistribution();
  std::vector<double> next(pi.size());
  std::uint64_t iterations = 0;
  for (std::uint64_t iter = 1; iter <= 200'000; ++iter) {
    const std::vector<double> legacy = legacyScatterLeft(d.matrix(), pi);
    next = legacy;
    double delta = 0.0;
    for (std::size_t s = 0; s < pi.size(); ++s) {
      delta += std::fabs(next[s] - pi[s]);
    }
    pi.swap(next);
    iterations = iter;
    if (delta < 1e-13) break;
  }

  const la::PowerResult ss = mc::steadyStateDistribution(d);
  EXPECT_TRUE(ss.stats.converged);
  EXPECT_EQ(ss.stats.iterations, iterations);
  EXPECT_LT(ss.stats.residual, 1e-13);
  EXPECT_TRUE(bitEqual(ss.distribution, pi));
}

TEST(Power, ParallelBitIdentical) {
  const auto model = test::randomModel(2500, 10, 79);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const la::PowerResult seq = mc::steadyStateDistribution(d);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::ThreadPool pool(threads);
    const la::PowerResult parallel =
        mc::steadyStateDistribution(d, poolExec(pool));
    EXPECT_EQ(parallel.stats.iterations, seq.stats.iterations) << threads;
    EXPECT_EQ(parallel.stats.residual, seq.stats.residual) << threads;
    EXPECT_TRUE(bitEqual(parallel.distribution, seq.distribution)) << threads;
  }
}

// -------------------------------------------------------- TransientSweep

TEST(TransientSweep, ParallelExecMatchesSequentialBitwise) {
  const auto model = test::randomModel(2500, 10, 89);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const auto reward = d.evalReward(model, "");
  mc::TransientSweep seq(d);
  seq.advanceTo(25);
  for (const std::size_t threads : {2u, 8u}) {
    engine::ThreadPool pool(threads);
    mc::TransientSweep parallel(d, poolExec(pool));
    parallel.advanceTo(25);
    EXPECT_TRUE(bitEqual(parallel.distribution(), seq.distribution()))
        << threads;
    EXPECT_EQ(parallel.expectedReward(reward), seq.expectedReward(reward))
        << threads;
  }
}

// -------------------------------------------------- checker diagnostics

TEST(Checker, SurfacesSolverDiagnostics) {
  const auto model = test::gamblersRuin(10, 0.5, 4);
  const auto d = dtmc::buildExplicit(model).dtmc;
  const mc::Checker checker(d, model);

  const mc::CheckResult reach = checker.check("P=? [ F s=10 ]");
  EXPECT_NEAR(reach.value, 0.4, 1e-9);
  ASSERT_TRUE(reach.solver.has_value());
  EXPECT_EQ(reach.solver->solver, "gauss-seidel");
  EXPECT_TRUE(reach.solver->converged);
  EXPECT_GT(reach.solver->iterations, 0u);

  const mc::CheckResult steady = checker.check("R=? [ S ]");
  ASSERT_TRUE(steady.solver.has_value());
  EXPECT_EQ(steady.solver->solver, "power");

  const mc::CheckResult transient = checker.check("R=? [ I=5 ]");
  EXPECT_FALSE(transient.solver.has_value());

  // When Prob0/Prob1 classify every state the linear solver never runs, so
  // no solver report is claimed.
  const auto trivial = test::twoStateChain(0.3, 0.4);
  const auto dTrivial = dtmc::buildExplicit(trivial).dtmc;
  const mc::Checker trivialChecker(dTrivial, trivial);
  const mc::CheckResult noSolve = trivialChecker.check("P=? [ F s=1 ]");
  EXPECT_NEAR(noSolve.value, 1.0, 1e-12);
  EXPECT_FALSE(noSolve.solver.has_value());
}

TEST(Engine, SolverDiagnosticsReachResults) {
  engine::EngineOptions options;
  options.threads = 2;
  engine::AnalysisEngine engine(options);
  const auto model = test::gamblersRuin(10, 0.5, 4);
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F s=10 ]", "R=? [ I=7 ]"};
  const engine::AnalysisResponse response = engine.analyze(request);
  ASSERT_TRUE(response.ok()) << response.error;
  ASSERT_TRUE(response.results[0].solver.has_value());
  EXPECT_EQ(response.results[0].solver->solver, "gauss-seidel");
  EXPECT_TRUE(response.results[0].solver->converged);
  EXPECT_GT(response.results[0].solver->iterations, 0u);
  EXPECT_NEAR(response.results[0].value, 0.4, 1e-9);
  EXPECT_FALSE(response.results[1].solver.has_value());
}

TEST(Engine, ExactResultsBitIdenticalAcrossPoolSizes) {
  // The full exact pipeline (build, batched sweep, unbounded solve) with
  // parallel linear algebra forced on: bytes must match at 1/2/8 threads.
  const auto model = test::randomModel(600, 6, 107);
  const std::vector<std::string> properties{
      "R=? [ I=40 ]", "R=? [ C<=25 ]", "P=? [ F target ]", "R=? [ S ]"};
  std::vector<std::vector<double>> values;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::EngineOptions options;
    options.threads = threads;
    engine::AnalysisEngine engine(options);
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = properties;
    request.options.check.exec.parallelThresholdNnz = 1;  // force parallel
    const engine::AnalysisResponse response = engine.analyze(request);
    ASSERT_TRUE(response.ok()) << response.error;
    std::vector<double> row;
    for (const auto& result : response.results) row.push_back(result.value);
    values.push_back(std::move(row));
  }
  EXPECT_TRUE(bitEqual(values[1], values[0]));
  EXPECT_TRUE(bitEqual(values[2], values[0]));
}

// ------------------------------------------------------------------ SIMD

std::vector<la::SimdTarget> supportedTargets() {
  std::vector<la::SimdTarget> targets;
  for (const la::SimdTarget t : {la::SimdTarget::kScalar,
                                 la::SimdTarget::kSse2,
                                 la::SimdTarget::kAvx2}) {
    if (la::simdTargetSupported(t)) targets.push_back(t);
  }
  return targets;
}

TEST(Simd, TargetNamesRoundTripAndScalarAlwaysWorks) {
  for (const la::SimdTarget t : supportedTargets()) {
    const char* name = la::simdTargetName(t);
    const std::optional<la::SimdTarget> parsed = la::parseSimdTarget(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, t);
    EXPECT_GE(la::simdLanes(t), 1u);
  }
  EXPECT_FALSE(la::parseSimdTarget("bogus").has_value());
  EXPECT_FALSE(la::parseSimdTarget("").has_value());
  // The scalar reference is compiled into every build; the probed best
  // target must itself pass the support probe.
  EXPECT_TRUE(la::simdTargetSupported(la::SimdTarget::kScalar));
  EXPECT_EQ(la::simdLanes(la::SimdTarget::kScalar), 1u);
  EXPECT_TRUE(la::simdTargetSupported(la::bestSimdTarget()));
}

TEST(Simd, ResolveEnvValueBranches) {
  std::string warning;
  // Absent / empty picks the probed best target, silently.
  EXPECT_EQ(la::resolveSimdEnvValue(nullptr, &warning), la::bestSimdTarget());
  EXPECT_TRUE(warning.empty()) << warning;
  EXPECT_EQ(la::resolveSimdEnvValue("", &warning), la::bestSimdTarget());
  EXPECT_TRUE(warning.empty()) << warning;
  // A supported explicit name wins.
  for (const la::SimdTarget t : supportedTargets()) {
    warning.clear();
    EXPECT_EQ(la::resolveSimdEnvValue(la::simdTargetName(t), &warning), t);
    EXPECT_TRUE(warning.empty()) << warning;
  }
  // Unknown values degrade to scalar with a warning — never to a wider
  // target (a typo must not silently change which kernels run). "neon"
  // is unknown too: aarch64 builds run the scalar kernels.
  for (const char* unknown : {"bogus", "neon"}) {
    warning.clear();
    EXPECT_EQ(la::resolveSimdEnvValue(unknown, &warning),
              la::SimdTarget::kScalar);
    EXPECT_FALSE(warning.empty()) << unknown;
  }
  // So do names this binary cannot run (compiled out or unsupported CPU).
  for (const la::SimdTarget t :
       {la::SimdTarget::kSse2, la::SimdTarget::kAvx2}) {
    if (la::simdTargetSupported(t)) continue;
    warning.clear();
    EXPECT_EQ(la::resolveSimdEnvValue(la::simdTargetName(t), &warning),
              la::SimdTarget::kScalar);
    EXPECT_FALSE(warning.empty()) << la::simdTargetName(t);
  }
}

TEST(Simd, EnvVariableRoutesThroughResolution) {
  // activeSimdTarget() latches its first read, so the integration check
  // goes through simdTargetFromEnv() directly.
  ASSERT_EQ(setenv("MIMOSTAT_SIMD", "scalar", 1), 0);
  EXPECT_EQ(la::simdTargetFromEnv(), la::SimdTarget::kScalar);
  ASSERT_EQ(setenv("MIMOSTAT_SIMD", "definitely-not-a-target", 1), 0);
  EXPECT_EQ(la::simdTargetFromEnv(), la::SimdTarget::kScalar);
  ASSERT_EQ(unsetenv("MIMOSTAT_SIMD"), 0);
  EXPECT_EQ(la::simdTargetFromEnv(), la::bestSimdTarget());
}

TEST(Simd, ResolvePrecedence) {
  EXPECT_EQ(la::resolveSimdTarget(std::nullopt), la::activeSimdTarget());
  for (const la::SimdTarget t : supportedTargets()) {
    EXPECT_EQ(la::resolveSimdTarget(t), t);
  }
  // A forced-but-unsupported target degrades to scalar, never wider.
  for (const la::SimdTarget t :
       {la::SimdTarget::kSse2, la::SimdTarget::kAvx2}) {
    if (la::simdTargetSupported(t)) continue;
    EXPECT_EQ(la::resolveSimdTarget(t), la::SimdTarget::kScalar);
  }
}

TEST(Simd, PanelWidthKeepsLaneMultiplesAndL2Residency) {
  // Narrow tiles stay whole (no point splitting below one panel)...
  EXPECT_EQ(la::spmmPanelWidth(100, 3, 4), 3u);
  EXPECT_EQ(la::spmmPanelWidth(100, 1, 4), 1u);
  EXPECT_EQ(la::spmmPanelWidth(100, 0, 4), 1u);
  // ...wide tiles clamp to the 16-column cap, rounded to a lane multiple.
  EXPECT_EQ(la::spmmPanelWidth(100, 40, 4), 16u);
  EXPECT_EQ(la::spmmPanelWidth(100, 40, 1), 16u);
  EXPECT_EQ(la::spmmPanelWidth(100, 14, 4), 12u);
  // A tall RHS narrows the panel so one panel's X slice fits the fixed
  // 256 KiB budget: 8192 rows * 8 bytes = 64 KiB per column -> 4 columns.
  EXPECT_EQ(la::spmmPanelWidth(8192, 40, 4), 4u);
  EXPECT_EQ(la::spmmPanelWidth(8192, 40, 2), 4u);
  // When even one whole vector of columns blows the budget, narrowing
  // would only re-stream the CSR arrays without a hit-rate win: go wide.
  EXPECT_EQ(la::spmmPanelWidth(1u << 20, 40, 4), 16u);
  EXPECT_EQ(la::spmmPanelWidth(0, 40, 4), 16u);
}

/// One SpMM workload: matrix, row-major RHS tile, byte mask + its packed
/// per-column form. Deterministic in (n, k, seed).
struct SpmmCase {
  DenseCsr m;
  std::size_t k = 0;
  std::vector<double> X;
  std::vector<std::uint8_t> mask;
  std::vector<la::BitVector> packed;
};

SpmmCase makeSpmmCase(std::uint32_t n, std::size_t k, std::uint64_t seed) {
  SpmmCase c{randomMatrix(n, 4, seed), k, {}, {}, {}};
  c.X.resize(static_cast<std::size_t>(n) * k);
  c.mask.resize(c.X.size());
  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (std::size_t i = 0; i < c.X.size(); ++i) {
    c.X[i] = rng.nextDouble();
    c.mask[i] = rng.nextDouble() < 0.25 ? 1 : 0;
  }
  c.packed = columnMasks(c.mask, n, k);
  return c;
}

/// One la::spmm output, labelled by its shape.
struct KernelRun {
  std::string shape;
  std::vector<double> y;
};

/// Every la::spmm shape under one Exec: right and left, each as a k = 1
/// product of X's column 0 (zeros when k == 0 — the empty tile still
/// exercises resize-and-return), as the plain k-column tile and as the
/// masked tile.
std::vector<KernelRun> runAllShapes(const SpmmCase& c, const la::Exec& exec) {
  const std::uint32_t n = c.m.csr.numRows();
  std::vector<double> x(n, 0.0);
  if (c.k > 0) {
    for (std::uint32_t s = 0; s < n; ++s) x[s] = c.X[s * c.k];
  }
  std::vector<KernelRun> runs;
  for (const la::Side side : {la::Side::kRight, la::Side::kLeft}) {
    const std::string name = side == la::Side::kRight ? "right" : "left";
    runs.push_back({name + " k=1", {}});
    la::spmm(c.m.csr, x, 1, runs.back().y, exec, side);
    runs.push_back({name, {}});
    la::spmm(c.m.csr, c.X, c.k, runs.back().y, exec, side);
    runs.push_back({name + " masked", {}});
    la::spmm(c.m.csr, c.X, c.k, runs.back().y, exec, side, &c.packed);
  }
  return runs;
}

void expectAllBitEqual(const std::vector<KernelRun>& got,
                       const std::vector<KernelRun>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(bitEqual(got[i].y, want[i].y)) << label << " " << got[i].shape;
  }
}

TEST(Simd, TailSizesBitwiseMatchScalarAndDenseOracle) {
  // n and k sweep 1 / lane-1 / lane / lane+1 per supported target (k == 0
  // is covered by SpmmStats below; n == 0 by EmptyTile). Remainder columns
  // take the scalar-tail path inside the panel kernel, so lane-straddling
  // sizes are exactly where a bad tail would show.
  la::Exec scalarExec;
  scalarExec.simd = la::SimdTarget::kScalar;
  for (const la::SimdTarget target : supportedTargets()) {
    const std::size_t lanes = la::simdLanes(target);
    std::vector<std::size_t> sizes{1, 2, 3};
    if (lanes > 1) {
      sizes = {1, lanes - 1, lanes, lanes + 1, 2 * lanes + 1};
    }
    la::Exec exec;
    exec.simd = target;
    for (const std::size_t k : sizes) {
      for (const std::size_t n : sizes) {
        const SpmmCase c = makeSpmmCase(static_cast<std::uint32_t>(n), k,
                                        1000 * n + k);
        const std::string label = std::string(la::simdTargetName(target)) +
                                  " n=" + std::to_string(n) +
                                  " k=" + std::to_string(k);
        expectAllBitEqual(runAllShapes(c, exec), runAllShapes(c, scalarExec),
                          label);
        // The vectorized spmm also has to be *right*, not merely
        // self-consistent: check against the dense oracle.
        std::vector<double> Y;
        la::spmm(c.m.csr, c.X, k, Y, exec);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t j = 0; j < k; ++j) {
            double expect = 0.0;
            for (std::size_t col = 0; col < n; ++col) {
              expect += c.m.dense[r][col] * c.X[col * k + j];
            }
            EXPECT_NEAR(Y[r * k + j], expect, 1e-12) << label;
          }
        }
      }
    }
  }
}

TEST(Simd, EmptyTileAndEmptyMatrixAreValid) {
  const SpmmCase c = makeSpmmCase(50, 3, 7);
  std::vector<double> Y(5, 1.0);
  la::SpmmStats stats;
  la::spmm(c.m.csr, {}, 0, Y, {}, la::Side::kRight, nullptr, &stats);
  EXPECT_TRUE(Y.empty());
  EXPECT_EQ(stats.panels, 0u);
  // A 0 x 0 matrix with a non-zero column count is the other degenerate
  // axis: the product is an empty tile whatever k says.
  const la::CsrMatrix empty = la::CsrMatrix::fromCsr({0}, {}, {}, 0);
  std::vector<double> Ze(3, 1.0);
  la::spmm(empty, {}, 4, Ze, {}, la::Side::kRight, nullptr, &stats);
  EXPECT_TRUE(Ze.empty());
}

TEST(Simd, ForcedDispatchBitIdenticalAcrossTargetsAndThreads) {
  // Large enough for several row blocks and column panels; odd k so every
  // target sees remainder columns. The scalar sequential output is the
  // one reference every (target, thread-count) combination must hit.
  SpmmCase c = makeSpmmCase(6000, 11, 811);
  c.m.dense.clear();  // unused here; keep the fixture light
  ASSERT_GE(c.m.csr.blockCount(), 2u);
  la::Exec scalarExec;
  scalarExec.simd = la::SimdTarget::kScalar;
  const std::vector<KernelRun> ref = runAllShapes(c, scalarExec);
  for (const la::SimdTarget target : supportedTargets()) {
    la::Exec exec;
    exec.simd = target;
    expectAllBitEqual(runAllShapes(c, exec), ref,
                      std::string(la::simdTargetName(target)) + " seq");
    for (const std::size_t threads : {1u, 2u, 8u}) {
      engine::ThreadPool pool(threads);
      la::Exec pexec = poolExec(pool);
      pexec.simd = target;
      expectAllBitEqual(runAllShapes(c, pexec), ref,
                        std::string(la::simdTargetName(target)) + " x" +
                            std::to_string(threads));
    }
  }
}

TEST(Simd, OddPanelWidthsExerciseUnalignedColumnOffsets) {
  // Odd row strides put every vector load/store at unaligned byte offsets,
  // and the natural panel width leaves tail columns: k = 3 is one panel
  // narrower than an AVX2 vector, k = 17 and 19 end in a 1- and a 3-column
  // panel after a full 16-wide one. loadu/storeu kernels must not care,
  // bitwise.
  for (const std::size_t k : {3u, 17u, 19u}) {
    const SpmmCase c = makeSpmmCase(257, k, 977 + k);
    la::Exec scalarExec;
    scalarExec.simd = la::SimdTarget::kScalar;
    std::vector<double> ref;
    la::spmm(c.m.csr, c.X, c.k, ref, scalarExec, la::Side::kRight,
             &c.packed);
    for (const la::SimdTarget target : supportedTargets()) {
      la::Exec exec;
      exec.simd = target;
      std::vector<double> Y;
      la::SpmmStats stats;
      la::spmm(c.m.csr, c.X, c.k, Y, exec, la::Side::kRight, &c.packed,
               &stats);
      EXPECT_TRUE(bitEqual(Y, ref))
          << la::simdTargetName(target) << " k=" << k;
      const std::size_t lanes = la::simdLanes(target);
      const std::size_t width = la::spmmPanelWidth(c.m.csr.numCols(), k, lanes);
      EXPECT_EQ(stats.panels, (k + width - 1) / width)
          << la::simdTargetName(target) << " k=" << k;
      // The last panel ends in columns no full vector covers.
      const std::size_t lastPanel = k - (stats.panels - 1) * width;
      if (lanes > 1) {
        EXPECT_NE(lastPanel % lanes, 0u)
            << la::simdTargetName(target) << " k=" << k;
      }
    }
  }
}

TEST(Simd, SpmmStatsReportPanelsTasksAndTarget) {
  // 1000-row RHS: 8 KiB per column, far inside the 256 KiB budget, so
  // panels stay 16 wide -> ceil(40 / 16) = 3 per product.
  const SpmmCase c = makeSpmmCase(1000, 40, 313);
  la::SpmmStats stats;
  std::vector<double> Y;
  la::spmm(c.m.csr, c.X, c.k, Y, {}, la::Side::kRight, nullptr, &stats);
  EXPECT_EQ(stats.panels, 3u);
  EXPECT_EQ(stats.target, la::resolveSimdTarget(std::nullopt));

  // Parallel: the same panels, on the forced target.
  engine::ThreadPool pool(2);
  la::Exec exec = poolExec(pool);
  exec.simd = la::SimdTarget::kScalar;
  la::spmm(c.m.csr, c.X, c.k, Y, exec, la::Side::kRight, nullptr, &stats);
  EXPECT_EQ(stats.panels, 3u);
  EXPECT_EQ(stats.target, la::SimdTarget::kScalar);

  // The k == 1 fast path counts as one panel.
  const SpmmCase single = makeSpmmCase(200, 1, 5);
  la::spmm(single.m.csr, single.X, 1, Y, {}, la::Side::kRight,
           &single.packed, &stats);
  EXPECT_EQ(stats.panels, 1u);

  // The left point-mass scatter is one scalar traversal.
  std::vector<double> pointMass(200, 0.0);
  pointMass[3] = 1.0;
  la::spmm(single.m.csr, pointMass, 1, Y, {}, la::Side::kLeft, nullptr,
           &stats);
  EXPECT_EQ(stats.panels, 1u);
  EXPECT_EQ(stats.target, la::SimdTarget::kScalar);
}

TEST(Simd, DispatchAndPanelCountersTick) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot before = registry.snapshot();
  const SpmmCase c = makeSpmmCase(200, 20, 99);
  std::vector<double> Y;
  la::spmm(c.m.csr, c.X, c.k, Y);
  const obs::MetricsSnapshot after = registry.snapshot();
  EXPECT_GT(after.counterValue("la.simd.dispatch"),
            before.counterValue("la.simd.dispatch"));
  // k = 20 over 16-wide panels is 2 panels for this product.
  EXPECT_GE(after.counterValue("la.spmm.panels"),
            before.counterValue("la.spmm.panels") + 2);
  const std::string byTarget =
      std::string("la.simd.dispatch.") +
      la::simdTargetName(la::resolveSimdTarget(std::nullopt));
  EXPECT_GT(after.counterValue(byTarget), 0u);
}

TEST(Engine, PlanStatsCarrySimdTargetAndPanels) {
  // The request's check.exec.simd reaches the checker's Exec; the bounded
  // group reports its panel traversals and the resolved target name.
  const auto model = test::randomModel(300, 5, 41);
  engine::AnalysisEngine engine;
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=20 target ]"};
  request.options.check.exec.simd = la::SimdTarget::kScalar;
  const engine::AnalysisResponse response = engine.analyze(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(response.plan.simdTarget, "scalar");
  EXPECT_GE(response.plan.spmmPanels, 1u);
}

}  // namespace
}  // namespace mimostat
