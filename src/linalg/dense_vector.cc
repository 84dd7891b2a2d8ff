#include "linalg/dense_vector.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/simd/simd.h"

namespace lsi::linalg {

void DenseVector::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void DenseVector::Scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

double DenseVector::Norm() const { return std::sqrt(SquaredNorm()); }

double DenseVector::SquaredNorm() const {
  return simd::SquaredNorm(data_.data(), data_.size());
}

double DenseVector::Sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

double DenseVector::Normalize() {
  double n = Norm();
  if (n > 0.0) Scale(1.0 / n);
  return n;
}

void DenseVector::Axpy(double alpha, const DenseVector& x) {
  LSI_CHECK(x.size() == size());
  simd::Axpy(data_.data(), alpha, x.data(), data_.size());
}

double Dot(const DenseVector& a, const DenseVector& b) {
  LSI_CHECK(a.size() == b.size());
  return simd::Dot(a.data(), b.data(), a.size());
}

double Distance(const DenseVector& a, const DenseVector& b) {
  LSI_CHECK(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double CosineSimilarity(const DenseVector& a, const DenseVector& b) {
  double na = a.Norm();
  double nb = b.Norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

double AngleBetween(const DenseVector& a, const DenseVector& b) {
  double na = a.Norm();
  double nb = b.Norm();
  if (na == 0.0 || nb == 0.0) return M_PI / 2.0;
  double c = Dot(a, b) / (na * nb);
  c = std::clamp(c, -1.0, 1.0);
  return std::acos(c);
}

DenseVector Add(const DenseVector& a, const DenseVector& b) {
  LSI_CHECK(a.size() == b.size());
  DenseVector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

DenseVector Subtract(const DenseVector& a, const DenseVector& b) {
  LSI_CHECK(a.size() == b.size());
  DenseVector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

DenseVector Scaled(const DenseVector& a, double alpha) {
  DenseVector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = alpha * a[i];
  return out;
}

}  // namespace lsi::linalg
