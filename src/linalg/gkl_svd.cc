#include "linalg/gkl_svd.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "linalg/svd_telemetry.h"

namespace lsi::linalg {
namespace {

/// Two passes of modified Gram-Schmidt (each projection uses the running
/// w) against the collected basis. `reorth_passes` accumulates telemetry.
void Reorthogonalize(const std::vector<DenseVector>& basis, DenseVector& w,
                     std::size_t& reorth_passes) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const DenseVector& q : basis) {
      double d = Dot(q, w);
      if (d != 0.0) w.Axpy(-d, q);
    }
  }
  reorth_passes += 2;
}

/// Draws a random unit vector orthogonal to `basis`; returns false if
/// the space is exhausted.
bool FreshDirection(std::size_t dim, const std::vector<DenseVector>& basis,
                    double tolerance, Rng& rng, DenseVector& out,
                    std::size_t& reorth_passes) {
  if (basis.size() >= dim) return false;
  for (int attempt = 0; attempt < 4; ++attempt) {
    out = DenseVector(dim);
    for (std::size_t i = 0; i < dim; ++i) out[i] = rng.NextGaussian();
    Reorthogonalize(basis, out, reorth_passes);
    if (out.Normalize() > tolerance) return true;
  }
  return false;
}

}  // namespace

Result<SvdResult> GklSvd(const LinearOperator& a, std::size_t k,
                         const GklSvdOptions& options) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("GklSvd requires a nonempty matrix");
  }
  const std::size_t min_dim = std::min(n, m);
  if (k == 0 || k > min_dim) {
    return Status::InvalidArgument("GklSvd requires 1 <= k <= min(rows, cols)");
  }
  // Keep the start vector on the smaller side: a random v in a wide
  // matrix's column space carries null-space components that pollute the
  // Krylov basis and slow convergence of the trailing singular values.
  if (n < m) {
    TransposedOperator at(a);
    LSI_ASSIGN_OR_RETURN(SvdResult swapped, GklSvd(at, k, options));
    SvdResult out;
    out.u = std::move(swapped.v);
    out.v = std::move(swapped.u);
    out.singular_values = std::move(swapped.singular_values);
    return out;
  }
  std::size_t steps = options.steps;
  if (steps == 0) steps = std::max<std::size_t>(2 * k + 20, 40);
  steps = std::min(steps, min_dim);
  if (steps < k) {
    return Status::InvalidArgument("GklSvd: steps < k");
  }

  Rng rng(options.seed);
  CountingOperator counted(a);
  std::size_t reorth_passes = 0;
  std::vector<DenseVector> us, vs;
  std::vector<double> alphas;  // alphas[j] = ||A v_j - beta_{j-1} u_{j-1}||
  std::vector<double> betas;   // betas[j] couples steps j and j+1.

  DenseVector v(m);
  for (std::size_t i = 0; i < m; ++i) v[i] = rng.NextGaussian();
  v.Normalize();

  for (std::size_t j = 0; j < steps; ++j) {
    vs.push_back(v);
    // u_j = A v_j - beta_{j-1} u_{j-1}, orthogonalized against prior u's.
    DenseVector u = counted.Apply(v);
    if (j > 0 && betas[j - 1] != 0.0) u.Axpy(-betas[j - 1], us[j - 1]);
    Reorthogonalize(us, u, reorth_passes);
    double alpha = u.Normalize();
    if (alpha <= options.tolerance) {
      // u collapsed: A maps the fresh v into the explored range. Restart
      // with a new direction if one exists, recording alpha = 0.
      alphas.push_back(0.0);
      DenseVector fresh_u;
      if (!FreshDirection(n, us, options.tolerance, rng, fresh_u,
                          reorth_passes)) {
        vs.pop_back();
        alphas.pop_back();
        break;
      }
      u = std::move(fresh_u);
    } else {
      alphas.push_back(alpha);
    }
    us.push_back(u);
    if (j + 1 == steps) break;

    // v_{j+1} = A^T u_j - alpha_j v_j, orthogonalized against prior v's.
    DenseVector next_v = counted.ApplyTranspose(u);
    next_v.Axpy(-alphas[j], v);
    Reorthogonalize(vs, next_v, reorth_passes);
    double beta = next_v.Normalize();
    if (beta <= options.tolerance) {
      // Invariant subspace: restart with a fresh right direction.
      DenseVector fresh_v;
      if (!FreshDirection(m, vs, options.tolerance, rng, fresh_v,
                          reorth_passes)) {
        break;
      }
      betas.push_back(0.0);
      v = std::move(fresh_v);
      continue;
    }
    betas.push_back(beta);
    v = std::move(next_v);
  }

  const std::size_t t = alphas.size();
  if (t < k) {
    return Status::NumericalError(
        "GklSvd: bidiagonalization terminated before reaching k directions");
  }

  // Small upper-bidiagonal B with A V_t = U_t B_t: the recurrence
  // A v_j = alpha_j u_j + beta_{j-1} u_{j-1} puts beta on the
  // superdiagonal.
  DenseMatrix b(t, t, 0.0);
  for (std::size_t j = 0; j < t; ++j) b(j, j) = alphas[j];
  for (std::size_t j = 0; j + 1 < t && j < betas.size(); ++j) {
    b(j, j + 1) = betas[j];
  }
  LSI_ASSIGN_OR_RETURN(SvdResult small, JacobiSvd(b));

  // Lift: U = U_t P, V = V_t Q for the top-k triplets of B = P S Q^T.
  SvdResult out;
  out.singular_values = DenseVector(k);
  out.u = DenseMatrix(n, k, 0.0);
  out.v = DenseMatrix(m, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    out.singular_values[i] = small.singular_values[i];
    DenseVector ucol(n, 0.0);
    DenseVector vcol(m, 0.0);
    for (std::size_t j = 0; j < t; ++j) {
      double pji = small.u(j, i);
      if (pji != 0.0) ucol.Axpy(pji, us[j]);
      double qji = small.v(j, i);
      if (qji != 0.0) vcol.Axpy(qji, vs[j]);
    }
    ucol.Normalize();
    vcol.Normalize();
    for (std::size_t r = 0; r < n; ++r) out.u(r, i) = ucol[r];
    for (std::size_t r = 0; r < m; ++r) out.v(r, i) = vcol[r];
  }

  obs::SolverStats stats;
  stats.solver = "gkl";
  stats.iterations = t;
  stats.reorth_passes = reorth_passes;
  stats.matvecs = counted.matvecs();
  internal::FinishSolverStats(a, out, std::move(stats), options.stats);
  return out;
}

Result<SvdResult> GklSvd(const SparseMatrix& a, std::size_t k,
                         const GklSvdOptions& options) {
  SparseOperator op(a);
  return GklSvd(op, k, options);
}

Result<SvdResult> GklSvd(const DenseMatrix& a, std::size_t k,
                         const GklSvdOptions& options) {
  DenseOperator op(a);
  return GklSvd(op, k, options);
}

}  // namespace lsi::linalg
