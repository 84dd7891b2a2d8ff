#include "linalg/operators.h"

#include "par/parallel_for.h"

namespace lsi::linalg {

// Columns are independent and write disjoint output columns, so the
// block product parallelizes across them, one chunk per column.
DenseMatrix LinearOperator::ApplyBlock(const DenseMatrix& x) const {
  DenseMatrix y(rows(), x.cols());
  par::ParallelFor(0, x.cols(), 1,
                   [&](std::size_t col_begin, std::size_t col_end) {
                     for (std::size_t j = col_begin; j < col_end; ++j) {
                       y.SetColumn(j, Apply(x.Column(j)));
                     }
                   });
  return y;
}

DenseMatrix LinearOperator::ApplyTransposeBlock(const DenseMatrix& x) const {
  DenseMatrix y(cols(), x.cols());
  par::ParallelFor(0, x.cols(), 1,
                   [&](std::size_t col_begin, std::size_t col_end) {
                     for (std::size_t j = col_begin; j < col_end; ++j) {
                       y.SetColumn(j, ApplyTranspose(x.Column(j)));
                     }
                   });
  return y;
}

}  // namespace lsi::linalg
