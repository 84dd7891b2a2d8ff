#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "linalg/svd_telemetry.h"

namespace lsi::linalg {

Result<SvdResult> RandomizedSvd(const LinearOperator& a, std::size_t k,
                                const RandomizedSvdOptions& options) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument(
        "RandomizedSvd requires a nonempty matrix");
  }
  const std::size_t min_dim = std::min(n, m);
  if (k == 0 || k > min_dim) {
    return Status::InvalidArgument(
        "RandomizedSvd requires 1 <= k <= min(rows, cols)");
  }
  const std::size_t sample = std::min(k + options.oversample, min_dim);

  Rng rng(options.seed);
  CountingOperator counted(a);
  std::size_t reorth_passes = 0;
  // Gaussian test matrix Omega: m x sample.
  DenseMatrix omega(m, sample);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < sample; ++j) omega(i, j) = rng.NextGaussian();
  }

  // Range sampling Y = A * Omega, with power iterations
  // Y <- A (A^T Y) and re-orthonormalization for stability.
  DenseMatrix y = counted.ApplyBlock(omega);
  LSI_ASSIGN_OR_RETURN(DenseMatrix q, Orthonormalize(y));
  ++reorth_passes;
  for (std::size_t it = 0; it < options.power_iterations; ++it) {
    DenseMatrix z = counted.ApplyTransposeBlock(q);
    LSI_ASSIGN_OR_RETURN(DenseMatrix qz, Orthonormalize(z));
    DenseMatrix y2 = counted.ApplyBlock(qz);
    LSI_ASSIGN_OR_RETURN(q, Orthonormalize(y2));
    reorth_passes += 2;
  }

  // Project: B = Q^T A, computed as (A^T Q)^T, sized sample x m.
  DenseMatrix at_q = counted.ApplyTransposeBlock(q);  // m x sample
  DenseMatrix b = at_q.Transposed();                  // sample x m

  LSI_ASSIGN_OR_RETURN(SvdResult small, JacobiSvd(b));

  SvdResult out;
  out.singular_values = DenseVector(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.singular_values[i] = small.singular_values[i];
  }
  // U = Q * U_b (truncate to k columns), V = V_b columns.
  DenseMatrix ub = small.u.LeftColumns(k);
  out.u = Multiply(q, ub);
  out.v = small.v.LeftColumns(k);

  obs::SolverStats stats;
  stats.solver = "randomized";
  stats.iterations = options.power_iterations;
  stats.reorth_passes = reorth_passes;
  stats.matvecs = counted.matvecs();
  internal::FinishSolverStats(a, out, std::move(stats), options.stats);
  return out;
}

Result<SvdResult> RandomizedSvd(const SparseMatrix& a, std::size_t k,
                                const RandomizedSvdOptions& options) {
  SparseOperator op(a);
  return RandomizedSvd(op, k, options);
}

Result<SvdResult> RandomizedSvd(const DenseMatrix& a, std::size_t k,
                                const RandomizedSvdOptions& options) {
  DenseOperator op(a);
  return RandomizedSvd(op, k, options);
}

}  // namespace lsi::linalg
