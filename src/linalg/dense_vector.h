#ifndef LSI_LINALG_DENSE_VECTOR_H_
#define LSI_LINALG_DENSE_VECTOR_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/check.h"

namespace lsi::linalg {

/// A dense vector of doubles.
///
/// Thin wrapper over contiguous storage with the handful of BLAS-1 style
/// operations the solvers need. Indexing is bounds-checked in debug builds
/// only, and inline: the SVD's inner loops index element by element, and
/// an out-of-line accessor there costs one call per entry.
class DenseVector {
 public:
  DenseVector() = default;

  /// Creates a vector of `size` entries, all equal to `fill`.
  explicit DenseVector(std::size_t size, double fill = 0.0)
      : data_(size, fill) {}

  DenseVector(std::initializer_list<double> values) : data_(values) {}

  /// Adopts an existing buffer.
  explicit DenseVector(std::vector<double> values)
      : data_(std::move(values)) {}

  DenseVector(const DenseVector&) = default;
  DenseVector& operator=(const DenseVector&) = default;
  DenseVector(DenseVector&&) noexcept = default;
  DenseVector& operator=(DenseVector&&) noexcept = default;

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator[](std::size_t i) const {
    LSI_DCHECK(i < data_.size());
    return data_[i];
  }
  double& operator[](std::size_t i) {
    LSI_DCHECK(i < data_.size());
    return data_[i];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  std::vector<double>::iterator begin() { return data_.begin(); }
  std::vector<double>::iterator end() { return data_.end(); }
  std::vector<double>::const_iterator begin() const { return data_.begin(); }
  std::vector<double>::const_iterator end() const { return data_.end(); }

  /// Sets every entry to `value`.
  void Fill(double value);

  /// Multiplies every entry by `alpha`.
  void Scale(double alpha);

  /// Euclidean (L2) norm.
  double Norm() const;

  /// Sum of squares of the entries.
  double SquaredNorm() const;

  /// Sum of the entries.
  double Sum() const;

  /// Scales this vector to unit L2 norm. A zero vector is left unchanged.
  /// Returns the original norm.
  double Normalize();

  /// this += alpha * x. Sizes must match.
  void Axpy(double alpha, const DenseVector& x);

  /// Access to the underlying storage.
  const std::vector<double>& values() const { return data_; }

 private:
  std::vector<double> data_;
};

/// Inner product <a, b>. Sizes must match.
double Dot(const DenseVector& a, const DenseVector& b);

/// Euclidean distance ||a - b||.
double Distance(const DenseVector& a, const DenseVector& b);

/// Cosine of the angle between a and b; returns 0 if either is zero.
double CosineSimilarity(const DenseVector& a, const DenseVector& b);

/// Angle between a and b in radians, in [0, pi]. Returns pi/2 if either
/// vector is zero (maximally non-informative).
double AngleBetween(const DenseVector& a, const DenseVector& b);

/// Returns a + b.
DenseVector Add(const DenseVector& a, const DenseVector& b);

/// Returns a - b.
DenseVector Subtract(const DenseVector& a, const DenseVector& b);

/// Returns alpha * a.
DenseVector Scaled(const DenseVector& a, double alpha);

}  // namespace lsi::linalg

#endif  // LSI_LINALG_DENSE_VECTOR_H_
