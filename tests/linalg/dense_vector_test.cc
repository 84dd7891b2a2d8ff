#include "linalg/dense_vector.h"

#include <cmath>

#include <gtest/gtest.h>

namespace lsi::linalg {
namespace {

TEST(DenseVectorTest, ConstructionAndSize) {
  DenseVector v(5, 2.0);
  EXPECT_EQ(v.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(v[i], 2.0);
  EXPECT_TRUE(DenseVector().empty());
}

TEST(DenseVectorTest, InitializerList) {
  DenseVector v = {1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[1], 2.0);
}

TEST(DenseVectorTest, FillAndScale) {
  DenseVector v(4, 1.0);
  v.Scale(3.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
  v.Fill(-1.0);
  EXPECT_DOUBLE_EQ(v[0], -1.0);
}

TEST(DenseVectorTest, NormAndSquaredNorm) {
  DenseVector v = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
}

TEST(DenseVectorTest, Sum) {
  DenseVector v = {1.0, -2.0, 3.5};
  EXPECT_DOUBLE_EQ(v.Sum(), 2.5);
}

TEST(DenseVectorTest, NormalizeMakesUnit) {
  DenseVector v = {3.0, 4.0};
  double old_norm = v.Normalize();
  EXPECT_DOUBLE_EQ(old_norm, 5.0);
  EXPECT_NEAR(v.Norm(), 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(v[0], 0.6);
}

TEST(DenseVectorTest, NormalizeZeroVectorIsNoop) {
  DenseVector v(3, 0.0);
  EXPECT_DOUBLE_EQ(v.Normalize(), 0.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
}

TEST(DenseVectorTest, Axpy) {
  DenseVector y = {1.0, 1.0};
  DenseVector x = {2.0, -1.0};
  y.Axpy(0.5, x);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 0.5);
}

TEST(DenseVectorTest, Dot) {
  DenseVector a = {1.0, 2.0, 3.0};
  DenseVector b = {4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0 - 10.0 + 18.0);
}

TEST(DenseVectorTest, Distance) {
  DenseVector a = {0.0, 0.0};
  DenseVector b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
}

TEST(DenseVectorTest, CosineSimilarityParallel) {
  DenseVector a = {1.0, 2.0};
  DenseVector b = {2.0, 4.0};
  EXPECT_NEAR(CosineSimilarity(a, b), 1.0, 1e-15);
}

TEST(DenseVectorTest, CosineSimilarityOrthogonal) {
  DenseVector a = {1.0, 0.0};
  DenseVector b = {0.0, 5.0};
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-15);
}

TEST(DenseVectorTest, CosineSimilarityZeroVector) {
  DenseVector a = {0.0, 0.0};
  DenseVector b = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
}

TEST(DenseVectorTest, AngleBetweenKnownValues) {
  DenseVector ex = {1.0, 0.0};
  DenseVector ey = {0.0, 1.0};
  DenseVector diag = {1.0, 1.0};
  EXPECT_NEAR(AngleBetween(ex, ey), M_PI / 2.0, 1e-12);
  EXPECT_NEAR(AngleBetween(ex, diag), M_PI / 4.0, 1e-12);
  EXPECT_NEAR(AngleBetween(ex, ex), 0.0, 1e-7);
}

TEST(DenseVectorTest, AngleBetweenAntiparallel) {
  DenseVector a = {1.0, 2.0};
  DenseVector b = {-2.0, -4.0};
  EXPECT_NEAR(AngleBetween(a, b), M_PI, 1e-7);
}

TEST(DenseVectorTest, AngleBetweenZeroVectorIsRightAngle) {
  DenseVector zero(2, 0.0);
  DenseVector b = {1.0, 0.0};
  EXPECT_DOUBLE_EQ(AngleBetween(zero, b), M_PI / 2.0);
}

TEST(DenseVectorTest, AddSubtractScaled) {
  DenseVector a = {1.0, 2.0};
  DenseVector b = {3.0, 5.0};
  DenseVector sum = Add(a, b);
  DenseVector diff = Subtract(b, a);
  DenseVector twice = Scaled(a, 2.0);
  EXPECT_DOUBLE_EQ(sum[1], 7.0);
  EXPECT_DOUBLE_EQ(diff[0], 2.0);
  EXPECT_DOUBLE_EQ(twice[1], 4.0);
}

#ifndef NDEBUG
// The accessor is inline in the header; a debug build still checks it.
TEST(DenseVectorDeathTest, OutOfRangeIndexAborts) {
  DenseVector v(3);
  const DenseVector& cv = v;
  EXPECT_DEATH({ v[3] = 1.0; }, "LSI_CHECK failed");
  EXPECT_DEATH({ (void)cv[3]; }, "LSI_CHECK failed");
}
#endif

}  // namespace
}  // namespace lsi::linalg
