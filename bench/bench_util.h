#ifndef LSI_BENCH_BENCH_UTIL_H_
#define LSI_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/rng.h"
#include "linalg/sparse_matrix.h"
#include "model/corpus_model.h"
#include "model/separable_model.h"
#include "obs/export.h"
#include "text/term_weighting.h"

namespace lsi::bench {

/// A generated corpus together with its term-document matrix, the unit of
/// work every experiment starts from.
struct BenchCorpus {
  model::GeneratedCorpus generated;
  linalg::SparseMatrix matrix;
};

/// Builds a pure ε-separable corpus + raw-count matrix; aborts the bench
/// binary on failure (setup errors are bugs, not recoverable states).
inline BenchCorpus MakeSeparableCorpus(const model::SeparableModelParams& params,
                                       std::size_t num_documents,
                                       std::uint64_t seed) {
  auto model = model::BuildSeparableModel(params);
  if (!model.ok()) {
    std::fprintf(stderr, "bench setup: %s\n",
                 model.status().ToString().c_str());
    std::abort();
  }
  Rng rng(seed);
  auto generated = model->GenerateCorpus(num_documents, rng);
  if (!generated.ok()) {
    std::fprintf(stderr, "bench setup: %s\n",
                 generated.status().ToString().c_str());
    std::abort();
  }
  auto matrix = text::BuildTermDocumentMatrix(generated->corpus);
  if (!matrix.ok()) {
    std::fprintf(stderr, "bench setup: %s\n",
                 matrix.status().ToString().c_str());
    std::abort();
  }
  return BenchCorpus{std::move(generated).value(),
                     std::move(matrix).value()};
}

/// Unwraps a Result in bench code, aborting with context on error.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench %s: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

/// Snapshots the global metrics registry (solver convergence counters,
/// stage latency histograms) into `BENCH_<experiment>_metrics.json` in
/// the working directory, so every run's telemetry travels with its
/// results. Call once at the end of main().
inline void WriteMetricsSnapshot(const std::string& experiment) {
  const std::string path = "BENCH_" + experiment + "_metrics.json";
  const std::string json = obs::ExportJson();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench metrics: cannot open %s\n", path.c_str());
    return;
  }
  std::fputs(json.c_str(), file);
  std::fclose(file);
  std::fprintf(stderr, "bench metrics: wrote %s\n", path.c_str());
}

}  // namespace lsi::bench

#endif  // LSI_BENCH_BENCH_UTIL_H_
