#ifndef LSI_OBS_SOLVER_STATS_H_
#define LSI_OBS_SOLVER_STATS_H_

#include <cstddef>
#include <string>

namespace lsi::obs {

/// Convergence telemetry one truncated-SVD solve reports. Every backend
/// fills one of these and publishes it to the global MetricsRegistry
/// under lsi.svd.<solver>.*; callers that want the numbers directly can
/// pass a SolverStats out-pointer through the backend's options struct.
struct SolverStats {
  /// Backend short name: "lanczos", "gkl", "randomized", "sampled",
  /// "jacobi".
  std::string solver;

  /// Iterations the backend ran: Lanczos / bidiagonalization steps,
  /// power iterations, or Jacobi sweeps.
  std::size_t iterations = 0;

  /// Reorthogonalization (or re-orthonormalization) passes performed.
  std::size_t reorth_passes = 0;

  /// Matrix-vector products against the user's operator (both A x and
  /// A^T x; Gram-operator applications count their two inner products).
  std::size_t matvecs = 0;

  /// Residual of the least-converged retained triplet,
  /// ||A v_k - sigma_k u_k||.
  double residual = 0.0;

  /// residual / sigma_1 (or the raw residual when sigma_1 == 0).
  double relative_residual = 0.0;

  /// Whether the solve met its convergence criterion
  /// (relative_residual <= 1e-6).
  bool converged = false;

  /// Wall time of the solve's stages, for backends that time them
  /// (Lanczos): operator applications, reorthogonalization, the small
  /// tridiagonal eigensolve, and the Ritz step that forms U and V.
  /// A few clock reads per step.
  double apply_ms = 0.0;
  double reorth_ms = 0.0;
  double tridiag_ms = 0.0;
  double ritz_ms = 0.0;

  /// Adds this solve to the global registry:
  ///   counters lsi.svd.<solver>.{solves,iterations,reorth_passes,matvecs}
  ///   gauges   lsi.svd.<solver>.{residual,relative_residual,converged}
  /// and, when the backend timed its stages, the cumulative millisecond
  /// totals lsi.svd.<solver>.{apply,reorth,tridiag,ritz}_ms. Those only
  /// ever grow, like lsi.par.wait_ms; they are gauges because counters
  /// hold integers.
  void Publish() const;
};

}  // namespace lsi::obs

#endif  // LSI_OBS_SOLVER_STATS_H_
