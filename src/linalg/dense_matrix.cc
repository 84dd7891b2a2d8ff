#include "linalg/dense_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/simd/simd.h"
#include "par/parallel_for.h"

namespace lsi::linalg {
namespace {

// Target floating-point operations per parallel chunk. Grains derived
// from it depend only on matrix shapes (never the thread count), so
// partitions — and results — are reproducible across LSI_THREADS
// settings; small products collapse to a single chunk and stay serial.
constexpr std::size_t kTargetChunkFlops = 1 << 16;

std::size_t FlopGrain(std::size_t flops_per_index) {
  return std::max<std::size_t>(1, kTargetChunkFlops /
                                      std::max<std::size_t>(1, flops_per_index));
}

}  // namespace

DenseMatrix::DenseMatrix(
    std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    LSI_CHECK(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

DenseMatrix DenseMatrix::Identity(std::size_t n) {
  DenseMatrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::Diagonal(const DenseVector& diag) {
  DenseMatrix m(diag.size(), diag.size(), 0.0);
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

DenseVector DenseMatrix::Row(std::size_t i) const {
  LSI_CHECK(i < rows_);
  DenseVector out(cols_);
  const double* src = RowPtr(i);
  std::copy(src, src + cols_, out.data());
  return out;
}

DenseVector DenseMatrix::Column(std::size_t j) const {
  LSI_CHECK(j < cols_);
  DenseVector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + j];
  return out;
}

void DenseMatrix::SetRow(std::size_t i, const DenseVector& v) {
  LSI_CHECK(i < rows_ && v.size() == cols_);
  std::copy(v.data(), v.data() + cols_, RowPtr(i));
}

void DenseMatrix::SetColumn(std::size_t j, const DenseVector& v) {
  LSI_CHECK(j < cols_ && v.size() == rows_);
  for (std::size_t i = 0; i < rows_; ++i) data_[i * cols_ + j] = v[i];
}

void DenseMatrix::AppendRow(const DenseVector& v) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = v.size();
  }
  LSI_CHECK(v.size() == cols_);
  data_.insert(data_.end(), v.data(), v.data() + v.size());
  ++rows_;
}

DenseMatrix DenseMatrix::SelectRows(
    const std::vector<std::size_t>& rows) const {
  DenseMatrix out(rows.size(), cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    LSI_CHECK(rows[i] < rows_);
    std::copy(RowPtr(rows[i]), RowPtr(rows[i]) + cols_, out.RowPtr(i));
  }
  return out;
}

DenseMatrix DenseMatrix::CopyWithSpareRow() const {
  DenseMatrix copy;
  copy.rows_ = rows_;
  copy.cols_ = cols_;
  copy.data_.reserve(data_.size() + cols_);
  copy.data_.assign(data_.begin(), data_.end());
  return copy;
}

void DenseMatrix::Fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

void DenseMatrix::Scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

DenseMatrix DenseMatrix::Transposed() const {
  DenseMatrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = row[j];
  }
  return out;
}

DenseMatrix DenseMatrix::LeftColumns(std::size_t k) const {
  LSI_CHECK(k <= cols_);
  DenseMatrix out(rows_, k);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* src = RowPtr(i);
    std::copy(src, src + k, out.RowPtr(i));
  }
  return out;
}

double DenseMatrix::FrobeniusNorm() const {
  return std::sqrt(simd::SquaredNorm(data_.data(), data_.size()));
}

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b) {
  LSI_CHECK(a.cols() == b.rows());
  DenseMatrix c(a.rows(), b.cols(), 0.0);
  // Row-parallel over disjoint output rows; each row keeps the serial
  // i-k-j order (streams through rows of b, cache friendly), so the
  // result is bit-identical to the serial kernel at any thread count.
  // The j loop is a contiguous axpy panel — the SIMD layer vectorizes it
  // without reordering the per-element k-ascending additions.
  par::ParallelFor(
      0, a.rows(), FlopGrain(a.cols() * b.cols()),
      [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t i = row_begin; i < row_end; ++i) {
          double* crow = c.RowPtr(i);
          const double* arow = a.RowPtr(i);
          for (std::size_t k = 0; k < a.cols(); ++k) {
            double aik = arow[k];
            if (aik == 0.0) continue;
            simd::Axpy(crow, aik, b.RowPtr(k), b.cols());
          }
        }
      });
  return c;
}

DenseMatrix MultiplyAtB(const DenseMatrix& a, const DenseMatrix& b) {
  LSI_CHECK(a.rows() == b.rows());
  DenseMatrix c(a.cols(), b.cols(), 0.0);
  // The k-outer accumulation writes every output row, so parallelize
  // over disjoint *column* slices of c instead; each slice sees the same
  // k-ascending addition order as the serial kernel (bit-identical).
  par::ParallelFor(
      0, b.cols(), FlopGrain(a.rows() * a.cols()),
      [&](std::size_t col_begin, std::size_t col_end) {
        for (std::size_t k = 0; k < a.rows(); ++k) {
          const double* arow = a.RowPtr(k);
          const double* brow = b.RowPtr(k);
          for (std::size_t i = 0; i < a.cols(); ++i) {
            double aki = arow[i];
            if (aki == 0.0) continue;
            simd::Axpy(c.RowPtr(i) + col_begin, aki, brow + col_begin,
                       col_end - col_begin);
          }
        }
      });
  return c;
}

DenseMatrix MultiplyABt(const DenseMatrix& a, const DenseMatrix& b) {
  LSI_CHECK(a.cols() == b.cols());
  DenseMatrix c(a.rows(), b.rows(), 0.0);
  // Row-parallel over disjoint output rows; bit-identical to serial.
  par::ParallelFor(
      0, a.rows(), FlopGrain(b.rows() * a.cols()),
      [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t i = row_begin; i < row_end; ++i) {
          const double* arow = a.RowPtr(i);
          double* crow = c.RowPtr(i);
          for (std::size_t j = 0; j < b.rows(); ++j) {
            crow[j] = simd::Dot(arow, b.RowPtr(j), a.cols());
          }
        }
      });
  return c;
}

DenseVector Multiply(const DenseMatrix& a, const DenseVector& x) {
  LSI_CHECK(x.size() == a.cols());
  DenseVector y(a.rows());
  // Row-parallel; disjoint outputs, bit-identical to serial.
  par::ParallelFor(0, a.rows(), FlopGrain(a.cols()),
                   [&](std::size_t row_begin, std::size_t row_end) {
                     for (std::size_t i = row_begin; i < row_end; ++i) {
                       y[i] = simd::Dot(a.RowPtr(i), x.data(), a.cols());
                     }
                   });
  return y;
}

DenseVector MultiplyTranspose(const DenseMatrix& a, const DenseVector& x) {
  LSI_CHECK(x.size() == a.rows());
  DenseVector y(a.cols(), 0.0);
  // The row-major scatter writes every output entry, so parallelize over
  // disjoint column slices of y. Each y[j] still receives its additions
  // in ascending-i order, exactly as the serial kernel (bit-identical).
  par::ParallelFor(0, a.cols(), FlopGrain(a.rows()),
                   [&](std::size_t col_begin, std::size_t col_end) {
                     for (std::size_t i = 0; i < a.rows(); ++i) {
                       double xi = x[i];
                       if (xi == 0.0) continue;
                       simd::Axpy(y.data() + col_begin, xi,
                                  a.RowPtr(i) + col_begin,
                                  col_end - col_begin);
                     }
                   });
  return y;
}

DenseMatrix Add(const DenseMatrix& a, const DenseMatrix& b) {
  LSI_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  DenseMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    c.data()[i] = a.data()[i] + b.data()[i];
  }
  return c;
}

DenseMatrix Subtract(const DenseMatrix& a, const DenseMatrix& b) {
  LSI_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  DenseMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    c.data()[i] = a.data()[i] - b.data()[i];
  }
  return c;
}

double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  LSI_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.data()[i] - b.data()[i]));
  }
  return max_diff;
}

double OrthonormalityError(const DenseMatrix& q) {
  DenseMatrix gram = MultiplyAtB(q, q);
  double max_err = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    for (std::size_t j = 0; j < gram.cols(); ++j) {
      double target = (i == j) ? 1.0 : 0.0;
      max_err = std::max(max_err, std::fabs(gram(i, j) - target));
    }
  }
  return max_err;
}

}  // namespace lsi::linalg
