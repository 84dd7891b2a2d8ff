#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/simd/simd.h"
#include "par/parallel_for.h"

namespace lsi::linalg {
namespace {

// Row-range grain for parallel SpMV kernels. Fixed (never derived from
// the thread count) so the chunked-reduction partition — and therefore
// the floating-point result — is identical at every LSI_THREADS setting.
constexpr std::size_t kSpmvRowGrain = 128;

// A^T x reduces over row chunks, one cols()-length partial each, so it
// uses at most this many chunks (of at least kSpmvRowGrain rows). Both
// constants are shape-only: the partition never depends on the thread
// count.
constexpr std::size_t kMaxTransposeChunks = 8;

// A^T B splits its output columns into equal slices of at least this
// many columns (one slice when B is narrower). Each slice streams all of
// A once, so a few wide slices beat many narrow ones: at 5000 x 50000 a
// 100-column block ran about 2x faster on one thread as two slices of
// 50 than as seven slices of 16, and two slices still use two threads.
constexpr std::size_t kMinSliceColumns = 48;

// Matrices below this many nonzeros aren't worth a parallel region at
// any thread count; a size-only threshold keeps the serial/parallel
// decision deterministic too.
constexpr std::size_t kMinParallelNnz = 1 << 14;

/// Rows per chunk of A^T x for a matrix with `rows` rows.
std::size_t TransposeRowGrain(std::size_t rows) {
  return std::max(kSpmvRowGrain,
                  (rows + kMaxTransposeChunks - 1) / kMaxTransposeChunks);
}

}  // namespace

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_offsets_(rows + 1, 0) {}

SparseMatrix SparseMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    LSI_CHECK(t.row < rows && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });

  SparseMatrix m(rows, cols);
  m.col_indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  while (i < triplets.size()) {
    // Merge duplicates at the same (row, col).
    std::size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_indices_.push_back(triplets[i].col);
    m.values_.push_back(sum);
    m.row_offsets_[triplets[i].row + 1]++;
    i = j;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    m.row_offsets_[r + 1] += m.row_offsets_[r];
  }
  return m;
}

Result<SparseMatrix> SparseMatrix::FromCsr(std::size_t rows, std::size_t cols,
                                           std::vector<std::size_t> row_offsets,
                                           std::vector<std::size_t> col_indices,
                                           std::vector<double> values) {
  if (row_offsets.size() != rows + 1 || row_offsets[0] != 0 ||
      row_offsets[rows] != col_indices.size() ||
      values.size() != col_indices.size()) {
    return Status::InvalidArgument("FromCsr: array sizes disagree");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      return Status::InvalidArgument("FromCsr: row offsets decrease");
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t p = row_offsets[r]; p < row_offsets[r + 1]; ++p) {
      if (col_indices[p] >= cols ||
          (p > row_offsets[r] && col_indices[p] <= col_indices[p - 1])) {
        return Status::InvalidArgument(
            "FromCsr: column indices out of range or not ascending");
      }
    }
  }
  SparseMatrix m(rows, cols);
  m.row_offsets_ = std::move(row_offsets);
  m.col_indices_ = std::move(col_indices);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::FromDense(const DenseMatrix& dense,
                                     double tolerance) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      double v = dense(i, j);
      if (std::fabs(v) > tolerance) triplets.push_back({i, j, v});
    }
  }
  return FromTriplets(dense.rows(), dense.cols(), std::move(triplets));
}

DenseVector SparseMatrix::Multiply(const DenseVector& x) const {
  LSI_CHECK(x.size() == cols_);
  DenseVector y(rows_, 0.0);
  // Row-parallel: each output y[i] is owned by exactly one chunk and
  // computed by the same serial inner loop as before, so the result is
  // bit-identical to the serial kernel at any thread count.
  auto rows_kernel = [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      const std::size_t begin = row_offsets_[i];
      y[i] = simd::SparseDot(values_.data() + begin,
                             col_indices_.data() + begin,
                             row_offsets_[i + 1] - begin, x.data());
    }
  };
  if (values_.size() < kMinParallelNnz) {
    rows_kernel(0, rows_);
  } else {
    par::ParallelFor(0, rows_, kSpmvRowGrain, rows_kernel);
  }
  return y;
}

DenseVector SparseMatrix::MultiplyTranspose(const DenseVector& x) const {
  LSI_CHECK(x.size() == rows_);
  // CSR scatters row contributions into shared output columns, so the
  // parallel version reduces over row chunks: each chunk accumulates a
  // private vector and the partials are folded in fixed chunk order.
  // The partition (at most kMaxTransposeChunks chunks) and fold order
  // depend only on the matrix shape, so the result is bit-identical at
  // every LSI_THREADS setting.
  auto scatter_rows = [&](std::size_t row_begin, std::size_t row_end) {
    DenseVector y(cols_, 0.0);
    double* out = y.data();
    const std::size_t* columns = col_indices_.data();
    const double* values = values_.data();
    for (std::size_t i = row_begin; i < row_end; ++i) {
      double xi = x[i];
      if (xi == 0.0) continue;
      for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
        out[columns[p]] += values[p] * xi;
      }
    }
    return y;
  };
  if (values_.size() < kMinParallelNnz) {
    return scatter_rows(0, rows_);
  }
  return par::ParallelReduce(
      std::size_t{0}, rows_, TransposeRowGrain(rows_),
      DenseVector(cols_, 0.0), scatter_rows,
      [](DenseVector acc, DenseVector partial) {
        acc.Axpy(1.0, partial);
        return acc;
      });
}

DenseMatrix SparseMatrix::MultiplyDense(const DenseMatrix& b) const {
  LSI_CHECK(b.rows() == cols_);
  DenseMatrix c(rows_, b.cols(), 0.0);
  // Row-parallel with disjoint output rows; bit-identical to serial.
  auto rows_kernel = [&](std::size_t row_begin, std::size_t row_end) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      double* crow = c.RowPtr(i);
      for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
        simd::Axpy(crow, values_[p], b.RowPtr(col_indices_[p]), b.cols());
      }
    }
  };
  if (values_.size() * b.cols() < kMinParallelNnz) {
    rows_kernel(0, rows_);
  } else {
    par::ParallelFor(0, rows_, kSpmvRowGrain, rows_kernel);
  }
  return c;
}

DenseMatrix SparseMatrix::MultiplyTransposeDense(const DenseMatrix& b) const {
  LSI_CHECK(b.rows() == rows_);
  const std::size_t width = b.cols();
  DenseMatrix c(cols_, width, 0.0);
  // Slices of output columns are disjoint: each streams A once in row
  // order and writes only its own columns, so every entry of C sums its
  // rows in ascending order whatever the thread count, and no partial
  // panel is ever allocated.
  const std::size_t slices =
      std::max<std::size_t>(1, width / kMinSliceColumns);
  const std::size_t slice_width = (width + slices - 1) / slices;
  auto slice_kernel = [&](std::size_t slice_begin, std::size_t slice_end) {
    for (std::size_t s = slice_begin; s < slice_end; ++s) {
      const std::size_t first = std::min(width, s * slice_width);
      const std::size_t count = std::min(slice_width, width - first);
      for (std::size_t i = 0; i < rows_; ++i) {
        const double* brow = b.RowPtr(i) + first;
        for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
          simd::Axpy(c.RowPtr(col_indices_[p]) + first, values_[p], brow,
                     count);
        }
      }
    }
  };
  if (values_.size() * width < kMinParallelNnz) {
    slice_kernel(0, slices);
  } else {
    par::ParallelFor(0, slices, 1, slice_kernel);
  }
  return c;
}

DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix d(rows_, cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      d(i, col_indices_[p]) = values_[p];
    }
  }
  return d;
}

SparseMatrix SparseMatrix::Transposed() const {
  SparseMatrix t(cols_, rows_);
  t.col_indices_.resize(values_.size());
  t.values_.resize(values_.size());
  // Count entries per column of this matrix (= rows of transpose).
  for (std::size_t c : col_indices_) t.row_offsets_[c + 1]++;
  for (std::size_t r = 0; r < cols_; ++r) {
    t.row_offsets_[r + 1] += t.row_offsets_[r];
  }
  std::vector<std::size_t> cursor(t.row_offsets_.begin(),
                                  t.row_offsets_.end() - 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t p = row_offsets_[i]; p < row_offsets_[i + 1]; ++p) {
      std::size_t dst = cursor[col_indices_[p]]++;
      t.col_indices_[dst] = i;
      t.values_[dst] = values_[p];
    }
  }
  return t;
}

double SparseMatrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : values_) acc += v * v;
  return std::sqrt(acc);
}

double SparseMatrix::At(std::size_t i, std::size_t j) const {
  LSI_CHECK(i < rows_ && j < cols_);
  auto begin = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[i]);
  auto end = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[i + 1]);
  auto it = std::lower_bound(begin, end, j);
  if (it != end && *it == j) {
    return values_[static_cast<std::size_t>(it - col_indices_.begin())];
  }
  return 0.0;
}

void SparseMatrix::Scale(double alpha) {
  for (double& v : values_) v *= alpha;
}

void SparseMatrixBuilder::Add(std::size_t row, std::size_t col, double value) {
  LSI_CHECK(row < rows_ && col < cols_);
  triplets_.push_back({row, col, value});
}

SparseMatrix SparseMatrixBuilder::Build() {
  std::vector<Triplet> triplets;
  triplets.swap(triplets_);
  return SparseMatrix::FromTriplets(rows_, cols_, std::move(triplets));
}

}  // namespace lsi::linalg
