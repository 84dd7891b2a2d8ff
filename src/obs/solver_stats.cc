#include "obs/solver_stats.h"

#include "obs/metrics.h"

namespace lsi::obs {

void SolverStats::Publish() const {
  if (solver.empty()) return;
  MetricsRegistry& registry = MetricsRegistry::Global();
  const std::string prefix = "lsi.svd." + solver + ".";
  registry.GetCounter(prefix + "solves").Increment();
  registry.GetCounter(prefix + "iterations").Increment(iterations);
  registry.GetCounter(prefix + "reorth_passes").Increment(reorth_passes);
  registry.GetCounter(prefix + "matvecs").Increment(matvecs);
  registry.GetGauge(prefix + "residual").Set(residual);
  registry.GetGauge(prefix + "relative_residual").Set(relative_residual);
  registry.GetGauge(prefix + "converged").Set(converged ? 1.0 : 0.0);
  if (apply_ms + reorth_ms + tridiag_ms + ritz_ms > 0.0) {
    registry.GetGauge(prefix + "apply_ms").Add(apply_ms);
    registry.GetGauge(prefix + "reorth_ms").Add(reorth_ms);
    registry.GetGauge(prefix + "tridiag_ms").Add(tridiag_ms);
    registry.GetGauge(prefix + "ritz_ms").Add(ritz_ms);
  }
}

}  // namespace lsi::obs
