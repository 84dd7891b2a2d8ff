// Determinism gate for the lsi::par layer: every parallel kernel and
// every solver built on top must produce BIT-IDENTICAL results at
// LSI_THREADS=1 and LSI_THREADS=8. Partitions depend only on problem
// shape and reductions fold in fixed chunk order, so these are exact
// (==) comparisons, not tolerances.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/dense_matrix.h"
#include "linalg/dense_vector.h"
#include "linalg/gkl_svd.h"
#include "linalg/operators.h"
#include "linalg/sparse_matrix.h"
#include "linalg/svd.h"
#include "par/par.h"
#include "test_util.h"

namespace lsi::linalg {
namespace {

/// Runs the body under each thread count and checks exact agreement.
class SvdDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { par::SetThreads(0); }
};

void ExpectBitIdentical(const DenseVector& a, const DenseVector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "entry " << i;
  }
}

void ExpectBitIdentical(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    EXPECT_EQ(pa[i], pb[i]) << "flat index " << i;
  }
}

/// A sparse matrix big enough (nnz >= the parallel thresholds) that the
/// chunked kernels actually engage.
SparseMatrix LargeSparseMatrix(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  const std::size_t nnz = rows * cols / 20;  // ~5% density.
  triplets.reserve(nnz);
  for (std::size_t t = 0; t < nnz; ++t) {
    triplets.push_back({static_cast<std::size_t>(rng.NextUint64Below(rows)),
                        static_cast<std::size_t>(rng.NextUint64Below(cols)),
                        rng.Uniform(-2.0, 2.0)});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
}

TEST_F(SvdDeterminismTest, SparseMultiplyMatchesAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(800, 600, 7);
  ASSERT_GE(a.NumNonZeros(), std::size_t{1} << 14);
  Rng rng(11);
  DenseVector x(600);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.Uniform(-1.0, 1.0);
  DenseVector xt(800);
  for (std::size_t i = 0; i < xt.size(); ++i) xt[i] = rng.Uniform(-1.0, 1.0);

  par::SetThreads(1);
  DenseVector y1 = a.Multiply(x);
  DenseVector yt1 = a.MultiplyTranspose(xt);
  par::SetThreads(8);
  DenseVector y8 = a.Multiply(x);
  DenseVector yt8 = a.MultiplyTranspose(xt);

  ExpectBitIdentical(y1, y8);
  ExpectBitIdentical(yt1, yt8);
}

TEST_F(SvdDeterminismTest, MultiplyTransposeWithSeveralRowChunks) {
  // 3000 rows split into eight row chunks of 375 for A^T x.
  SparseMatrix a = LargeSparseMatrix(3000, 200, 17);
  Rng rng(19);
  DenseVector x(3000);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.Uniform(-1.0, 1.0);
  x[5] = 0.0;

  par::SetThreads(1);
  DenseVector y1 = a.MultiplyTranspose(x);
  par::SetThreads(8);
  DenseVector y8 = a.MultiplyTranspose(x);

  ExpectBitIdentical(y1, y8);
  DenseVector dense = MultiplyTranspose(a.ToDense(), x);
  for (std::size_t j = 0; j < y1.size(); ++j) {
    EXPECT_NEAR(y1[j], dense[j], 1e-11) << "column " << j;
  }
}

TEST_F(SvdDeterminismTest, BlockProductsMatchAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(900, 700, 23);
  Rng rng(25);
  // 100 columns: A^T X runs as two column slices.
  DenseMatrix x = testing::RandomMatrix(700, 100, rng);
  DenseMatrix xt = testing::RandomMatrix(900, 100, rng);
  SparseOperator sparse(a);
  DenseMatrix dense_a = a.ToDense();
  DenseOperator dense(dense_a);  // Default column-loop block products.

  par::SetThreads(1);
  DenseMatrix ax1 = sparse.ApplyBlock(x);
  DenseMatrix atx1 = sparse.ApplyTransposeBlock(xt);
  DenseMatrix dx1 = dense.ApplyBlock(x);
  DenseMatrix dtx1 = dense.ApplyTransposeBlock(xt);
  par::SetThreads(8);
  DenseMatrix ax8 = sparse.ApplyBlock(x);
  DenseMatrix atx8 = sparse.ApplyTransposeBlock(xt);
  DenseMatrix dx8 = dense.ApplyBlock(x);
  DenseMatrix dtx8 = dense.ApplyTransposeBlock(xt);

  ExpectBitIdentical(ax1, ax8);
  ExpectBitIdentical(atx1, atx8);
  ExpectBitIdentical(dx1, dx8);
  ExpectBitIdentical(dtx1, dtx8);
  // Both kinds of block product compute the same products.
  EXPECT_LT(MaxAbsDiff(ax1, dx1), 1e-11);
  EXPECT_LT(MaxAbsDiff(atx1, dtx1), 1e-11);
}

TEST_F(SvdDeterminismTest, DenseKernelsMatchAcrossThreadCounts) {
  Rng rng(13);
  DenseMatrix a = testing::RandomMatrix(300, 200, rng);
  DenseMatrix b = testing::RandomMatrix(200, 150, rng);
  DenseMatrix c = testing::RandomMatrix(300, 150, rng);
  DenseVector x(200);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.Uniform(-1.0, 1.0);
  DenseVector xr(300);
  for (std::size_t i = 0; i < xr.size(); ++i) xr[i] = rng.Uniform(-1.0, 1.0);

  par::SetThreads(1);
  DenseMatrix ab1 = Multiply(a, b);
  DenseMatrix atc1 = MultiplyAtB(a, c);
  DenseMatrix cbt1 = MultiplyABt(c, b);  // (300x150) * (200x150)^T.
  DenseVector ax1 = Multiply(a, x);
  DenseVector atx1 = MultiplyTranspose(a, xr);
  par::SetThreads(8);
  DenseMatrix ab8 = Multiply(a, b);
  DenseMatrix atc8 = MultiplyAtB(a, c);
  DenseMatrix cbt8 = MultiplyABt(c, b);
  DenseVector ax8 = Multiply(a, x);
  DenseVector atx8 = MultiplyTranspose(a, xr);

  ExpectBitIdentical(ab1, ab8);
  ExpectBitIdentical(atc1, atc8);
  ExpectBitIdentical(cbt1, cbt8);
  ExpectBitIdentical(ax1, ax8);
  ExpectBitIdentical(atx1, atx8);
}

TEST_F(SvdDeterminismTest, LanczosSvdBitIdenticalAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(500, 400, 21);
  LanczosSvdOptions options;
  options.seed = 3;

  par::SetThreads(1);
  auto svd1 = LanczosSvd(a, 6, options);
  ASSERT_TRUE(svd1.ok()) << svd1.status().ToString();
  par::SetThreads(8);
  auto svd8 = LanczosSvd(a, 6, options);
  ASSERT_TRUE(svd8.ok()) << svd8.status().ToString();

  ExpectBitIdentical(svd1->singular_values, svd8->singular_values);
  ExpectBitIdentical(svd1->u, svd8->u);
  ExpectBitIdentical(svd1->v, svd8->v);
}

// Term-document matrices are wide (fewer terms than documents), so the
// engine's solves take the outer A A^T path; the cases above are tall.
TEST_F(SvdDeterminismTest, WideLanczosSvdBitIdenticalAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(300, 1200, 31);
  LanczosSvdOptions options;
  options.seed = 7;

  par::SetThreads(1);
  auto svd1 = LanczosSvd(a, 8, options);
  ASSERT_TRUE(svd1.ok()) << svd1.status().ToString();
  par::SetThreads(8);
  auto svd8 = LanczosSvd(a, 8, options);
  ASSERT_TRUE(svd8.ok()) << svd8.status().ToString();

  ExpectBitIdentical(svd1->singular_values, svd8->singular_values);
  ExpectBitIdentical(svd1->u, svd8->u);
  ExpectBitIdentical(svd1->v, svd8->v);
}

TEST_F(SvdDeterminismTest, WideRandomizedSvdBitIdenticalAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(300, 1200, 33);
  RandomizedSvdOptions options;
  options.seed = 9;

  par::SetThreads(1);
  auto svd1 = RandomizedSvd(a, 8, options);
  ASSERT_TRUE(svd1.ok()) << svd1.status().ToString();
  par::SetThreads(8);
  auto svd8 = RandomizedSvd(a, 8, options);
  ASSERT_TRUE(svd8.ok()) << svd8.status().ToString();

  ExpectBitIdentical(svd1->singular_values, svd8->singular_values);
  ExpectBitIdentical(svd1->u, svd8->u);
  ExpectBitIdentical(svd1->v, svd8->v);
}

TEST_F(SvdDeterminismTest, RandomizedSvdBitIdenticalAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(500, 400, 29);
  RandomizedSvdOptions options;
  options.seed = 5;

  par::SetThreads(1);
  auto svd1 = RandomizedSvd(a, 6, options);
  ASSERT_TRUE(svd1.ok()) << svd1.status().ToString();
  par::SetThreads(8);
  auto svd8 = RandomizedSvd(a, 6, options);
  ASSERT_TRUE(svd8.ok()) << svd8.status().ToString();

  ExpectBitIdentical(svd1->singular_values, svd8->singular_values);
  ExpectBitIdentical(svd1->u, svd8->u);
  ExpectBitIdentical(svd1->v, svd8->v);
}

TEST_F(SvdDeterminismTest, GklSvdBitIdenticalAcrossThreadCounts) {
  SparseMatrix a = LargeSparseMatrix(500, 400, 37);

  par::SetThreads(1);
  auto svd1 = GklSvd(a, 6);
  ASSERT_TRUE(svd1.ok()) << svd1.status().ToString();
  par::SetThreads(8);
  auto svd8 = GklSvd(a, 6);
  ASSERT_TRUE(svd8.ok()) << svd8.status().ToString();

  ExpectBitIdentical(svd1->singular_values, svd8->singular_values);
  ExpectBitIdentical(svd1->u, svd8->u);
  ExpectBitIdentical(svd1->v, svd8->v);
}

}  // namespace
}  // namespace lsi::linalg
