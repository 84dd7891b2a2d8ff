#include "linalg/dense_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace lsi::linalg {
namespace {

TEST(DenseMatrixTest, ConstructionAndIndexing) {
  DenseMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(DenseMatrixTest, InitializerList) {
  DenseMatrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(DenseMatrixTest, Identity) {
  DenseMatrix eye = DenseMatrix::Identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(DenseMatrixTest, Diagonal) {
  DenseMatrix d = DenseMatrix::Diagonal({2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(DenseMatrixTest, RowAndColumnExtraction) {
  DenseMatrix m = {{1.0, 2.0}, {3.0, 4.0}};
  DenseVector row = m.Row(1);
  DenseVector col = m.Column(0);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  EXPECT_DOUBLE_EQ(row[1], 4.0);
  EXPECT_DOUBLE_EQ(col[0], 1.0);
  EXPECT_DOUBLE_EQ(col[1], 3.0);
}

TEST(DenseMatrixTest, SetRowSetColumn) {
  DenseMatrix m(2, 2, 0.0);
  m.SetRow(0, DenseVector{1.0, 2.0});
  m.SetColumn(1, DenseVector{9.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 8.0);
}

TEST(DenseMatrixTest, Transposed) {
  DenseMatrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  DenseMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(DenseMatrixTest, TransposeTwiceIsIdentity) {
  Rng rng(3);
  DenseMatrix m = testing::RandomMatrix(5, 7, rng);
  EXPECT_DOUBLE_EQ(MaxAbsDiff(m, m.Transposed().Transposed()), 0.0);
}

TEST(DenseMatrixTest, LeftColumns) {
  DenseMatrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  DenseMatrix left = m.LeftColumns(2);
  EXPECT_EQ(left.cols(), 2u);
  EXPECT_DOUBLE_EQ(left(1, 1), 5.0);
}

TEST(DenseMatrixTest, FrobeniusNorm) {
  DenseMatrix m = {{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(DenseMatrixTest, MultiplyKnownProduct) {
  DenseMatrix a = {{1.0, 2.0}, {3.0, 4.0}};
  DenseMatrix b = {{5.0, 6.0}, {7.0, 8.0}};
  DenseMatrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(DenseMatrixTest, MultiplyByIdentity) {
  Rng rng(5);
  DenseMatrix m = testing::RandomMatrix(4, 4, rng);
  DenseMatrix eye = DenseMatrix::Identity(4);
  EXPECT_LT(MaxAbsDiff(Multiply(m, eye), m), 1e-15);
  EXPECT_LT(MaxAbsDiff(Multiply(eye, m), m), 1e-15);
}

TEST(DenseMatrixTest, MultiplyAtBMatchesExplicitTranspose) {
  Rng rng(7);
  DenseMatrix a = testing::RandomMatrix(6, 4, rng);
  DenseMatrix b = testing::RandomMatrix(6, 3, rng);
  DenseMatrix expected = Multiply(a.Transposed(), b);
  EXPECT_LT(MaxAbsDiff(MultiplyAtB(a, b), expected), 1e-12);
}

TEST(DenseMatrixTest, MultiplyABtMatchesExplicitTranspose) {
  Rng rng(9);
  DenseMatrix a = testing::RandomMatrix(5, 4, rng);
  DenseMatrix b = testing::RandomMatrix(6, 4, rng);
  DenseMatrix expected = Multiply(a, b.Transposed());
  EXPECT_LT(MaxAbsDiff(MultiplyABt(a, b), expected), 1e-12);
}

TEST(DenseMatrixTest, MatrixVectorProduct) {
  DenseMatrix a = {{1.0, 2.0}, {3.0, 4.0}};
  DenseVector x = {1.0, -1.0};
  DenseVector y = Multiply(a, x);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(DenseMatrixTest, TransposeVectorProduct) {
  DenseMatrix a = {{1.0, 2.0}, {3.0, 4.0}};
  DenseVector x = {1.0, 1.0};
  DenseVector y = MultiplyTranspose(a, x);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(DenseMatrixTest, AddSubtract) {
  DenseMatrix a = {{1.0, 2.0}};
  DenseMatrix b = {{10.0, 20.0}};
  EXPECT_DOUBLE_EQ(Add(a, b)(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(Subtract(b, a)(0, 0), 9.0);
}

TEST(DenseMatrixTest, ScaleInPlace) {
  DenseMatrix m = {{1.0, -2.0}};
  m.Scale(-3.0);
  EXPECT_DOUBLE_EQ(m(0, 0), -3.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 6.0);
}

TEST(DenseMatrixTest, OrthonormalityErrorOfIdentity) {
  EXPECT_DOUBLE_EQ(OrthonormalityError(DenseMatrix::Identity(4)), 0.0);
}

TEST(DenseMatrixTest, OrthonormalityErrorDetectsScaling) {
  DenseMatrix m = DenseMatrix::Identity(3);
  m.Scale(2.0);
  EXPECT_NEAR(OrthonormalityError(m), 3.0, 1e-15);  // 4 - 1 on the diagonal.
}

TEST(DenseMatrixTest, AppendRowGrowsMatrix) {
  DenseMatrix m(2, 3, 1.0);
  m.AppendRow(DenseVector{4.0, 5.0, 6.0});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(m(2, 2), 6.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);  // Existing data untouched.
}

TEST(DenseMatrixTest, AppendRowToEmptySetsWidth) {
  DenseMatrix m;
  m.AppendRow(DenseVector{1.0, 2.0});
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 2u);
  m.AppendRow(DenseVector{3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(DenseMatrixTest, MultiplyAssociativity) {
  Rng rng(11);
  DenseMatrix a = testing::RandomMatrix(3, 4, rng);
  DenseMatrix b = testing::RandomMatrix(4, 5, rng);
  DenseMatrix c = testing::RandomMatrix(5, 2, rng);
  DenseMatrix left = Multiply(Multiply(a, b), c);
  DenseMatrix right = Multiply(a, Multiply(b, c));
  EXPECT_LT(MaxAbsDiff(left, right), 1e-12);
}

#ifndef NDEBUG
// The accessor is inline in the header; a debug build still checks both
// indices.
TEST(DenseMatrixDeathTest, OutOfRangeIndexAborts) {
  DenseMatrix m(2, 3);
  const DenseMatrix& cm = m;
  EXPECT_DEATH({ m(2, 0) = 1.0; }, "LSI_CHECK failed");
  EXPECT_DEATH({ m(0, 3) = 1.0; }, "LSI_CHECK failed");
  EXPECT_DEATH({ (void)cm(2, 0); }, "LSI_CHECK failed");
  EXPECT_DEATH({ (void)cm(0, 3); }, "LSI_CHECK failed");
}
#endif

}  // namespace
}  // namespace lsi::linalg
