// Edge cases of LanczosSvd's blocked Ritz step: U and V come from one
// pass over the Lanczos basis (the Gram side) and one block product (the
// other side), for both the tall A^T A path and the wide A A^T path.

#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"
#include "linalg/svd.h"
#include "test_util.h"

namespace lsi::linalg {
namespace {

/// A rows x cols matrix with about half its entries zero.
DenseMatrix SparseRandom(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix a = testing::RandomMatrix(rows, cols, rng);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.Uniform(0.0, 1.0) < 0.5) a(i, j) = 0.0;
    }
  }
  return a;
}

void ExpectAllFinite(const DenseMatrix& m) {
  for (double value : m.values()) EXPECT_TRUE(std::isfinite(value));
}

/// Runs LanczosSvd on the sparse form of `a` and checks its singular
/// values against JacobiSvd and its U and V for orthonormality.
SvdResult ExpectMatchesJacobi(const DenseMatrix& a, std::size_t k) {
  auto lanczos = LanczosSvd(SparseMatrix::FromDense(a), k);
  EXPECT_TRUE(lanczos.ok()) << lanczos.status().ToString();
  if (!lanczos.ok()) return {};
  auto jacobi = JacobiSvd(a);
  EXPECT_TRUE(jacobi.ok());
  if (!jacobi.ok()) return {};
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(lanczos->singular_values[i], jacobi->singular_values[i],
                1e-10)
        << "sigma " << i;
  }
  EXPECT_LT(OrthonormalityError(lanczos->u), 1e-10);
  EXPECT_LT(OrthonormalityError(lanczos->v), 1e-10);
  ExpectAllFinite(lanczos->u);
  ExpectAllFinite(lanczos->v);
  return *lanczos;
}

TEST(LanczosRitzTest, TallMatrixMatchesJacobi) {
  SvdResult svd = ExpectMatchesJacobi(SparseRandom(60, 25, 3), 6);
  EXPECT_EQ(svd.u.rows(), 60u);
  EXPECT_EQ(svd.v.rows(), 25u);
}

TEST(LanczosRitzTest, WideMatrixMatchesJacobi) {
  SvdResult svd = ExpectMatchesJacobi(SparseRandom(25, 60, 5), 6);
  EXPECT_EQ(svd.u.rows(), 25u);
  EXPECT_EQ(svd.v.rows(), 60u);
}

TEST(LanczosRitzTest, ZeroRowAndColumnGetZeroSingularVectorEntries) {
  for (bool wide : {false, true}) {
    DenseMatrix a = wide ? SparseRandom(20, 45, 7) : SparseRandom(45, 20, 7);
    const std::size_t zero_row = 4;
    const std::size_t zero_col = 9;
    for (std::size_t j = 0; j < a.cols(); ++j) a(zero_row, j) = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) a(i, zero_col) = 0.0;
    SvdResult svd = ExpectMatchesJacobi(a, 5);
    ASSERT_EQ(svd.rank(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR(svd.u(zero_row, i), 0.0, 1e-10) << "wide=" << wide;
      EXPECT_NEAR(svd.v(zero_col, i), 0.0, 1e-10) << "wide=" << wide;
    }
  }
}

TEST(LanczosRitzTest, RankDeficientColumnsBeyondTheRankStayFinite) {
  // Rank 3 (rows 3.. are combinations of rows 0..2), asked for k = 6.
  for (bool wide : {false, true}) {
    DenseMatrix basis = SparseRandom(3, wide ? 30 : 12, 11);
    Rng rng(13);
    DenseMatrix mix = testing::RandomMatrix(wide ? 12 : 30, 3, rng);
    DenseMatrix a = Multiply(mix, basis);
    if (!wide) a = a.Transposed();  // 12 x 30 -> tall 30 x 12.
    auto svd = LanczosSvd(SparseMatrix::FromDense(a), 6);
    ASSERT_TRUE(svd.ok()) << svd.status().ToString();
    auto jacobi = JacobiSvd(a);
    ASSERT_TRUE(jacobi.ok());
    const double sigma1 = jacobi->singular_values[0];
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(svd->singular_values[i], jacobi->singular_values[i],
                  1e-10 * sigma1);
    }
    for (std::size_t i = 3; i < 6; ++i) {
      EXPECT_LE(svd->singular_values[i], 1e-6 * sigma1) << "wide=" << wide;
    }
    ExpectAllFinite(svd->u);
    ExpectAllFinite(svd->v);
    // A sigma = 0 column has no partner vector: the non-Gram side stays
    // exactly zero there.
    const DenseMatrix& other = wide ? svd->v : svd->u;
    for (std::size_t i = 0; i < 6; ++i) {
      if (svd->singular_values[i] != 0.0) continue;
      for (std::size_t r = 0; r < other.rows(); ++r) {
        EXPECT_EQ(other(r, i), 0.0) << "wide=" << wide << " column " << i;
      }
    }
  }
}

TEST(LanczosRitzTest, AllZeroMatrixGivesZeroSigmasAndZeroPartners) {
  for (bool wide : {false, true}) {
    SparseMatrix a(wide ? 6 : 14, wide ? 14 : 6);
    auto svd = LanczosSvd(a, 4);
    ASSERT_TRUE(svd.ok()) << svd.status().ToString();
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(svd->singular_values[i], 0.0);
    }
    ExpectAllFinite(svd->u);
    ExpectAllFinite(svd->v);
    // The Gram side holds unit Ritz vectors; the other side is zero.
    const DenseMatrix& gram_side = wide ? svd->u : svd->v;
    const DenseMatrix& other = wide ? svd->v : svd->u;
    EXPECT_LT(OrthonormalityError(gram_side), 1e-12);
    for (double value : other.values()) EXPECT_EQ(value, 0.0);
  }
}

}  // namespace
}  // namespace lsi::linalg
