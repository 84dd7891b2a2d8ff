#include "linalg/sparse_matrix.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace lsi::linalg {
namespace {

SparseMatrix SmallExample() {
  // [ 1 0 2 ]
  // [ 0 3 0 ]
  return SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
}

TEST(SparseMatrixTest, EmptyMatrix) {
  SparseMatrix m(4, 5);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.NumNonZeros(), 0u);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 0.0);
}

TEST(SparseMatrixTest, FromTripletsBasic) {
  SparseMatrix m = SmallExample();
  EXPECT_EQ(m.NumNonZeros(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
}

TEST(SparseMatrixTest, DuplicateTripletsAreSummed) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, -1.0}, {1, 1, 1.0}});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);  // Summed to zero but retained.
}

TEST(SparseMatrixTest, UnsortedTripletsAreSorted) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{2, 2, 9.0}, {0, 1, 1.0}, {1, 0, 2.0}, {0, 0, 3.0}});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(2, 2), 9.0);
}

TEST(SparseMatrixTest, ToDenseRoundTrip) {
  SparseMatrix m = SmallExample();
  DenseMatrix d = m.ToDense();
  EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
  SparseMatrix back = SparseMatrix::FromDense(d);
  EXPECT_EQ(back.NumNonZeros(), 3u);
  EXPECT_DOUBLE_EQ(back.At(0, 2), 2.0);
}

TEST(SparseMatrixTest, FromDenseTolerance) {
  DenseMatrix d = {{1.0, 1e-14}, {0.0, 2.0}};
  SparseMatrix m = SparseMatrix::FromDense(d, 1e-12);
  EXPECT_EQ(m.NumNonZeros(), 2u);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  Rng rng(101);
  DenseMatrix d = testing::RandomMatrix(7, 5, rng);
  SparseMatrix s = SparseMatrix::FromDense(d);
  DenseVector x = testing::RandomUnitVector(5, rng);
  DenseVector expected = Multiply(d, x);
  DenseVector got = s.Multiply(x);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_NEAR(got[i], expected[i], 1e-13);
}

TEST(SparseMatrixTest, MultiplyTransposeMatchesDense) {
  Rng rng(103);
  DenseMatrix d = testing::RandomMatrix(7, 5, rng);
  SparseMatrix s = SparseMatrix::FromDense(d);
  DenseVector x = testing::RandomUnitVector(7, rng);
  DenseVector expected = MultiplyTranspose(d, x);
  DenseVector got = s.MultiplyTranspose(x);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(got[i], expected[i], 1e-13);
}

TEST(SparseMatrixTest, MultiplyDenseMatchesDense) {
  Rng rng(105);
  DenseMatrix d = testing::RandomMatrix(6, 4, rng);
  DenseMatrix b = testing::RandomMatrix(4, 3, rng);
  SparseMatrix s = SparseMatrix::FromDense(d);
  EXPECT_LT(MaxAbsDiff(s.MultiplyDense(b), Multiply(d, b)), 1e-12);
}

TEST(SparseMatrixTest, MultiplyTransposeDenseMatchesDense) {
  Rng rng(107);
  DenseMatrix d = testing::RandomMatrix(6, 4, rng);
  DenseMatrix b = testing::RandomMatrix(6, 3, rng);
  SparseMatrix s = SparseMatrix::FromDense(d);
  EXPECT_LT(MaxAbsDiff(s.MultiplyTransposeDense(b), MultiplyAtB(d, b)),
            1e-12);
}

TEST(SparseMatrixTest, MultiplyTransposeDenseSpansSeveralColumnSlices) {
  // 101 columns: two column slices of 51 and 50.
  Rng rng(108);
  DenseMatrix d = testing::RandomMatrix(9, 5, rng);
  d(3, 2) = 0.0;
  DenseMatrix b = testing::RandomMatrix(9, 101, rng);
  SparseMatrix s = SparseMatrix::FromDense(d);
  EXPECT_LT(MaxAbsDiff(s.MultiplyTransposeDense(b), MultiplyAtB(d, b)),
            1e-12);
}

TEST(SparseMatrixTest, FromCsrAdoptsValidArrays) {
  auto m = SparseMatrix::FromCsr(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  SparseMatrix expected = SmallExample();
  EXPECT_EQ(m->row_offsets(), expected.row_offsets());
  EXPECT_EQ(m->col_indices(), expected.col_indices());
  EXPECT_EQ(m->values(), expected.values());
}

TEST(SparseMatrixTest, FromCsrRejectsMalformedArrays) {
  // Offsets of the wrong length, not starting at 0, or not ending at nnz.
  EXPECT_FALSE(SparseMatrix::FromCsr(2, 3, {0, 1}, {0}, {1.0}).ok());
  EXPECT_FALSE(SparseMatrix::FromCsr(2, 3, {1, 1, 1}, {0}, {1.0}).ok());
  EXPECT_FALSE(SparseMatrix::FromCsr(2, 3, {0, 1, 2}, {0}, {1.0}).ok());
  // Values and indices disagree in length.
  EXPECT_FALSE(SparseMatrix::FromCsr(2, 3, {0, 1, 1}, {0}, {1.0, 2.0}).ok());
  // Decreasing offsets, also where an early row would overrun nnz.
  EXPECT_FALSE(
      SparseMatrix::FromCsr(2, 3, {0, 2, 1}, {0, 1}, {1.0, 2.0}).ok());
  EXPECT_FALSE(SparseMatrix::FromCsr(2, 3, {0, 5, 1}, {0}, {1.0}).ok());
  // Column out of range, unsorted, and duplicated within a row.
  EXPECT_FALSE(SparseMatrix::FromCsr(1, 3, {0, 1}, {3}, {1.0}).ok());
  EXPECT_FALSE(
      SparseMatrix::FromCsr(1, 3, {0, 2}, {2, 0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(
      SparseMatrix::FromCsr(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}).ok());
  // Rows restart the ascending check.
  EXPECT_TRUE(SparseMatrix::FromCsr(2, 3, {0, 1, 2}, {2, 0}, {1.0, 2.0}).ok());
}

TEST(SparseMatrixTest, TransposedMatchesDenseTranspose) {
  Rng rng(109);
  DenseMatrix d = testing::RandomMatrix(5, 8, rng);
  SparseMatrix s = SparseMatrix::FromDense(d);
  SparseMatrix st = s.Transposed();
  EXPECT_EQ(st.rows(), 8u);
  EXPECT_EQ(st.cols(), 5u);
  EXPECT_LT(MaxAbsDiff(st.ToDense(), d.Transposed()), 1e-15);
}

TEST(SparseMatrixTest, TransposeTwiceIsIdentity) {
  SparseMatrix m = SmallExample();
  SparseMatrix mtt = m.Transposed().Transposed();
  EXPECT_LT(MaxAbsDiff(m.ToDense(), mtt.ToDense()), 1e-15);
}

TEST(SparseMatrixTest, FrobeniusNorm) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 3.0}, {1, 1, 4.0}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 5.0);
}

TEST(SparseMatrixTest, Scale) {
  SparseMatrix m = SmallExample();
  m.Scale(2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 6.0);
}

TEST(SparseMatrixBuilderTest, BuildMatchesTriplets) {
  SparseMatrixBuilder builder(3, 3);
  builder.Add(0, 0, 1.0);
  builder.Add(2, 1, 5.0);
  builder.Add(0, 0, 2.0);  // Duplicate: summed.
  SparseMatrix m = builder.Build();
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 5.0);
  EXPECT_EQ(m.NumNonZeros(), 2u);
}

TEST(SparseMatrixBuilderTest, ReusableAfterBuild) {
  SparseMatrixBuilder builder(2, 2);
  builder.Add(0, 0, 1.0);
  SparseMatrix first = builder.Build();
  builder.Add(1, 1, 7.0);
  SparseMatrix second = builder.Build();
  EXPECT_EQ(first.NumNonZeros(), 1u);
  EXPECT_EQ(second.NumNonZeros(), 1u);
  EXPECT_DOUBLE_EQ(second.At(1, 1), 7.0);
  EXPECT_DOUBLE_EQ(second.At(0, 0), 0.0);
}

TEST(SparseMatrixTest, RowOffsetsConsistent) {
  SparseMatrix m = SmallExample();
  const auto& offsets = m.row_offsets();
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 2u);  // Row 0 has 2 nonzeros.
  EXPECT_EQ(offsets[2], 3u);
}

}  // namespace
}  // namespace lsi::linalg
