#ifndef LSI_LINALG_DENSE_MATRIX_H_
#define LSI_LINALG_DENSE_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/check.h"
#include "linalg/dense_vector.h"

namespace lsi::linalg {

/// A dense, row-major matrix of doubles.
///
/// Designed for the moderate sizes LSI's dense stages need (projected
/// matrices, eigenvector accumulation). Large term-document matrices live
/// in SparseMatrix instead.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a matrix from nested initializer lists (rows of values).
  /// All rows must have equal length.
  DenseMatrix(std::initializer_list<std::initializer_list<double>> rows);

  DenseMatrix(const DenseMatrix&) = default;
  DenseMatrix& operator=(const DenseMatrix&) = default;
  DenseMatrix(DenseMatrix&&) noexcept = default;
  DenseMatrix& operator=(DenseMatrix&&) noexcept = default;

  /// The n x n identity matrix.
  static DenseMatrix Identity(std::size_t n);

  /// Diagonal matrix with `diag` on the main diagonal.
  static DenseMatrix Diagonal(const DenseVector& diag);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Element (i, j), bounds-checked in debug builds only. Inline for the
  /// same reason as DenseVector::operator[].
  double operator()(std::size_t i, std::size_t j) const {
    LSI_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double& operator()(std::size_t i, std::size_t j) {
    LSI_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Pointer to the start of row i (contiguous, cols() entries).
  double* RowPtr(std::size_t i) { return data_.data() + i * cols_; }
  const double* RowPtr(std::size_t i) const { return data_.data() + i * cols_; }

  /// Copies row i into a DenseVector.
  DenseVector Row(std::size_t i) const;

  /// Copies column j into a DenseVector.
  DenseVector Column(std::size_t j) const;

  /// Overwrites row i with `v` (size must equal cols()).
  void SetRow(std::size_t i, const DenseVector& v);

  /// Overwrites column j with `v` (size must equal rows()).
  void SetColumn(std::size_t j, const DenseVector& v);

  /// Appends `v` as a new bottom row. On a default-constructed matrix
  /// the first append fixes the column count.
  void AppendRow(const DenseVector& v);

  /// A copy holding rows `rows` of this matrix, in that order. Every id
  /// must be below rows().
  DenseMatrix SelectRows(const std::vector<std::size_t>& rows) const;

  /// A copy whose storage has room for one more row, so its first
  /// AppendRow appends in place. (A plain copy's capacity is its size:
  /// its first AppendRow moves every row.)
  DenseMatrix CopyWithSpareRow() const;

  /// Sets every entry to `value`.
  void Fill(double value);

  /// Multiplies every entry by `alpha`.
  void Scale(double alpha);

  /// Returns the transpose.
  DenseMatrix Transposed() const;

  /// Returns the submatrix of the first `k` columns. Requires k <= cols().
  DenseMatrix LeftColumns(std::size_t k) const;

  /// Frobenius norm sqrt(sum of squares).
  double FrobeniusNorm() const;

  /// Raw storage (row-major).
  const std::vector<double>& values() const { return data_; }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Returns a * b. Inner dimensions must agree.
DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b);

/// Returns a^T * b without materializing a^T.
DenseMatrix MultiplyAtB(const DenseMatrix& a, const DenseMatrix& b);

/// Returns a * b^T without materializing b^T.
DenseMatrix MultiplyABt(const DenseMatrix& a, const DenseMatrix& b);

/// Returns a * x. Requires x.size() == a.cols().
DenseVector Multiply(const DenseMatrix& a, const DenseVector& x);

/// Returns a^T * x. Requires x.size() == a.rows().
DenseVector MultiplyTranspose(const DenseMatrix& a, const DenseVector& x);

/// Returns a + b (same shape).
DenseMatrix Add(const DenseMatrix& a, const DenseMatrix& b);

/// Returns a - b (same shape).
DenseMatrix Subtract(const DenseMatrix& a, const DenseMatrix& b);

/// Max absolute entry of a - b; convenient for tests.
double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

/// ||Q^T Q - I||_max: how far the columns of Q are from orthonormal.
double OrthonormalityError(const DenseMatrix& q);

}  // namespace lsi::linalg

#endif  // LSI_LINALG_DENSE_MATRIX_H_
