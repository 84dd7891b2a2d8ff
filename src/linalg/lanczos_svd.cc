#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/timer.h"
#include "linalg/eigen.h"
#include "linalg/simd/simd.h"
#include "linalg/svd.h"
#include "linalg/svd_telemetry.h"
#include "par/parallel_for.h"

namespace lsi::linalg {
namespace {

// Rows of the Ritz block Y = Q Z_k per parallel chunk: a 64 x k block of
// Y stays in cache while the whole basis streams past it.
constexpr std::size_t kRitzRowGrain = 64;

/// Runs symmetric Lanczos with full reorthogonalization on the (implicitly
/// PSD) operator `g`, returning the Lanczos basis Q (columns), and the
/// tridiagonal coefficients alpha/beta.
struct LanczosBasis {
  std::vector<DenseVector> q;
  std::vector<double> alpha;
  std::vector<double> beta;  // beta[j] couples q[j] and q[j+1].
  std::size_t reorth_passes = 0;
  CumulativeTimer apply;   // Gram-operator applications.
  CumulativeTimer reorth;  // Reorthogonalize calls.
};

/// Full reorthogonalization of w against the basis vectors collected so
/// far: modified Gram-Schmidt (each projection uses the running w), run
/// twice.
void Reorthogonalize(const std::vector<DenseVector>& basis, DenseVector& w) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const DenseVector& q : basis) {
      double d = Dot(q, w);
      if (d != 0.0) w.Axpy(-d, q);
    }
  }
}

LanczosBasis RunLanczos(const LinearOperator& g, std::size_t steps,
                        double tolerance, Rng& rng) {
  const std::size_t dim = g.cols();
  LanczosBasis basis;

  DenseVector q(dim);
  for (std::size_t i = 0; i < dim; ++i) q[i] = rng.NextGaussian();
  q.Normalize();
  basis.q.push_back(q);

  for (std::size_t j = 0; j < steps; ++j) {
    basis.apply.Start();
    DenseVector w = g.Apply(basis.q[j]);
    basis.apply.Stop();
    double alpha = Dot(w, basis.q[j]);
    basis.alpha.push_back(alpha);
    w.Axpy(-alpha, basis.q[j]);
    if (j > 0) w.Axpy(-basis.beta[j - 1], basis.q[j - 1]);
    basis.reorth.Start();
    Reorthogonalize(basis.q, w);
    basis.reorth.Stop();
    basis.reorth_passes += 2;
    double beta = w.Norm();
    if (j + 1 == steps) break;  // The last beta is not needed.
    if (beta <= tolerance) {
      // Invariant subspace found: restart with a fresh random direction
      // orthogonal to the basis. If the space is exhausted, stop.
      if (basis.q.size() >= dim) {
        break;
      }
      DenseVector fresh(dim);
      for (std::size_t i = 0; i < dim; ++i) fresh[i] = rng.NextGaussian();
      basis.reorth.Start();
      Reorthogonalize(basis.q, fresh);
      basis.reorth.Stop();
      basis.reorth_passes += 2;
      double norm = fresh.Normalize();
      if (norm <= tolerance) break;
      basis.beta.push_back(0.0);
      basis.q.push_back(fresh);
      continue;
    }
    w.Scale(1.0 / beta);
    basis.beta.push_back(beta);
    basis.q.push_back(w);
  }
  return basis;
}

/// The Ritz block Y = Q Z_k (dim x k) from the first t basis vectors and
/// the top-k columns of the tridiagonal eigenvectors z (t x t). Each row
/// of Y sums its basis entries in basis order; rows are disjoint chunks,
/// so Y is bit-identical at every thread count.
DenseMatrix RitzVectors(const std::vector<DenseVector>& q, std::size_t t,
                        const DenseMatrix& z, std::size_t k) {
  DenseMatrix y(q[0].size(), k, 0.0);
  par::ParallelFor(0, y.rows(), kRitzRowGrain,
                   [&](std::size_t row_begin, std::size_t row_end) {
                     for (std::size_t j = 0; j < t; ++j) {
                       const double* qj = q[j].data();
                       const double* zj = z.RowPtr(j);
                       for (std::size_t r = row_begin; r < row_end; ++r) {
                         simd::Axpy(y.RowPtr(r), qj[r], zj, k);
                       }
                     }
                   });
  return y;
}

/// Scales each column of m to unit length (a zero column stays zero).
/// Given `sigma`, a column whose singular value is 0 has no partner
/// vector and is set to exactly zero instead. Norms sum the rows in
/// order, serially.
void NormalizeColumns(DenseMatrix& m, const DenseVector* sigma = nullptr) {
  const std::size_t k = m.cols();
  std::vector<double> scale(k, 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (std::size_t i = 0; i < k; ++i) scale[i] += row[i] * row[i];
  }
  for (std::size_t i = 0; i < k; ++i) {
    const double norm = std::sqrt(scale[i]);
    const bool partnerless = sigma != nullptr && (*sigma)[i] == 0.0;
    scale[i] = partnerless ? 0.0 : (norm > 0.0 ? 1.0 / norm : 1.0);
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double* row = m.RowPtr(r);
    for (std::size_t i = 0; i < k; ++i) row[i] *= scale[i];
  }
}

}  // namespace

Result<SvdResult> LanczosSvd(const LinearOperator& a, std::size_t k,
                             const LanczosSvdOptions& options) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("LanczosSvd requires a nonempty matrix");
  }
  const std::size_t min_dim = std::min(n, m);
  if (k == 0 || k > min_dim) {
    return Status::InvalidArgument(
        "LanczosSvd requires 1 <= k <= min(rows, cols)");
  }

  // Work on the Gram operator of the smaller side, so the Lanczos basis
  // vectors are as short as possible. The counting wrapper sits between
  // the Gram operators and the user's matrix, so every underlying
  // product (two per Gram application) lands in the matvec telemetry.
  CountingOperator counted(a);
  const bool use_outer = (n <= m);  // A A^T is n x n.
  GramOperator gram(counted);       // A^T A, m x m.
  OuterGramOperator outer(counted);  // A A^T, n x n.
  const LinearOperator& g = use_outer
                                ? static_cast<const LinearOperator&>(outer)
                                : static_cast<const LinearOperator&>(gram);
  const std::size_t dim = use_outer ? n : m;

  std::size_t steps = options.steps;
  if (steps == 0) steps = std::max<std::size_t>(2 * k + 20, 40);
  steps = std::min(steps, dim);
  if (steps < k) {
    return Status::InvalidArgument("LanczosSvd: steps < k");
  }

  Rng rng(options.seed);
  LanczosBasis basis = RunLanczos(g, steps, options.tolerance, rng);
  const std::size_t t = basis.alpha.size();
  if (t < k) {
    return Status::NumericalError(
        "LanczosSvd: Lanczos terminated before reaching k directions");
  }

  Timer tridiag_timer;
  std::vector<double> sub(basis.beta.begin(),
                          basis.beta.begin() + static_cast<std::ptrdiff_t>(t - 1));
  auto eig = TridiagonalEigen(basis.alpha, sub);
  if (!eig.ok()) return eig.status();
  const SymmetricEigenResult& tri = eig.value();
  const double tridiag_ms = tridiag_timer.ElapsedMillis();

  // Ritz step: the Gram side's singular vectors are Y = Q Z_k; the other
  // side is one block product (A^T U for the outer Gram, A V for the
  // Gram), normalized per column. A column with sigma = 0 has no
  // defined partner and stays exactly zero.
  Timer ritz_timer;
  SvdResult out;
  out.singular_values = DenseVector(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.singular_values[i] = std::sqrt(std::max(tri.eigenvalues[i], 0.0));
  }
  DenseMatrix y = RitzVectors(basis.q, t, tri.eigenvectors, k);
  NormalizeColumns(y);
  if (use_outer) {
    out.v = counted.ApplyTransposeBlock(y);
    out.u = std::move(y);
    NormalizeColumns(out.v, &out.singular_values);
  } else {
    out.u = counted.ApplyBlock(y);
    out.v = std::move(y);
    NormalizeColumns(out.u, &out.singular_values);
  }
  const double ritz_ms = ritz_timer.ElapsedMillis();

  obs::SolverStats stats;
  stats.solver = "lanczos";
  stats.iterations = t;
  stats.reorth_passes = basis.reorth_passes;
  stats.matvecs = counted.matvecs();
  stats.apply_ms = basis.apply.TotalMillis();
  stats.reorth_ms = basis.reorth.TotalMillis();
  stats.tridiag_ms = tridiag_ms;
  stats.ritz_ms = ritz_ms;
  internal::FinishSolverStats(a, out, std::move(stats), options.stats);
  return out;
}

Result<SvdResult> LanczosSvd(const SparseMatrix& a, std::size_t k,
                             const LanczosSvdOptions& options) {
  SparseOperator op(a);
  return LanczosSvd(op, k, options);
}

Result<SvdResult> LanczosSvd(const DenseMatrix& a, std::size_t k,
                             const LanczosSvdOptions& options) {
  DenseOperator op(a);
  return LanczosSvd(op, k, options);
}

}  // namespace lsi::linalg
