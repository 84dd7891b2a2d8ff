// Substrate performance: throughput of the kernels everything else sits
// on — sparse mat-vec, dense QR, random projection application, the text
// pipeline (tokenize + stop-words + Porter stemming), alias-method
// sampling, the query fold-in, and one result-cache hit. Not a
// paper experiment; CI's bench job runs the guarded rows of the merge
// base and of the head side by side (ci/bench_guard.py ab).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/engine.h"
#include "core/lsi_index.h"
#include "linalg/dense_matrix.h"
#include "linalg/operators.h"
#include "linalg/qr.h"
#include "linalg/random_matrix.h"
#include "linalg/simd/simd.h"
#include "model/discrete_distribution.h"
#include "par/par.h"
#include "par/parallel_for.h"
#include "serve/query_cache.h"
#include "text/analyzer.h"

namespace {

void BM_SparseMatVec(benchmark::State& state) {
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 777);
  lsi::linalg::DenseVector x(corpus.matrix.cols(), 1.0);
  for (auto _ : state) {
    auto y = corpus.matrix.Multiply(x);
    benchmark::DoNotOptimize(y);
  }
  state.counters["nnz"] = static_cast<double>(corpus.matrix.NumNonZeros());
}

void BM_SparseMatVecTranspose(benchmark::State& state) {
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 778);
  lsi::linalg::DenseVector x(corpus.matrix.rows(), 1.0);
  for (auto _ : state) {
    auto y = corpus.matrix.MultiplyTranspose(x);
    benchmark::DoNotOptimize(y);
  }
}

void BM_HouseholderQr(benchmark::State& state) {
  lsi::Rng rng(11);
  auto g = lsi::linalg::GaussianMatrix(
      static_cast<std::size_t>(state.range(0)), 120, rng);
  for (auto _ : state) {
    auto q = lsi::linalg::Orthonormalize(g);
    benchmark::DoNotOptimize(q);
  }
}

void BM_TextPipeline(benchmark::State& state) {
  // ~1 KiB of prose, analyzed repeatedly.
  std::string text;
  for (int i = 0; i < 12; ++i) {
    text +=
        "The spectral analysis of the term document matrix reveals the "
        "latent semantic structure hiding behind correlated words and "
        "their repeated usage patterns across documents in a corpus. ";
  }
  lsi::text::Analyzer analyzer;
  for (auto _ : state) {
    auto tokens = analyzer.Analyze(text);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

void BM_AliasSampling(benchmark::State& state) {
  std::vector<double> weights(2000);
  lsi::Rng seed_rng(13);
  for (double& w : weights) w = seed_rng.Uniform(0.1, 5.0);
  auto dist = lsi::model::DiscreteDistribution::FromWeights(weights);
  lsi::Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist->Sample(rng));
  }
}

// Serial-vs-parallel throughput of the lsi::par-threaded kernels. The
// second range argument is the thread count handed to par::SetThreads;
// the ci bench guard compares the 1-thread and 4-thread timings of these
// benchmarks. Each restores automatic thread resolution before exiting
// so the thread count never leaks into other benchmarks.

void BM_SparseMatVecThreads(benchmark::State& state) {
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 777);
  lsi::linalg::DenseVector x(corpus.matrix.cols(), 1.0);
  lsi::par::SetThreads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto y = corpus.matrix.Multiply(x);
    benchmark::DoNotOptimize(y);
  }
  lsi::par::SetThreads(0);
  state.counters["nnz"] = static_cast<double>(corpus.matrix.NumNonZeros());
}

void BM_GramApplyThreads(benchmark::State& state) {
  // One A^T (A x) round trip — the inner loop of every Gram-side solver.
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 779);
  lsi::linalg::SparseOperator op(corpus.matrix);
  lsi::linalg::GramOperator gram(op);
  lsi::linalg::DenseVector x(gram.cols(), 1.0);
  lsi::par::SetThreads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto y = gram.Apply(x);
    benchmark::DoNotOptimize(y);
  }
  lsi::par::SetThreads(0);
}

void BM_DenseGemmThreads(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  lsi::Rng rng(23);
  auto a = lsi::linalg::GaussianMatrix(n, n / 2, rng);
  auto b = lsi::linalg::GaussianMatrix(n / 2, n / 4, rng);
  lsi::par::SetThreads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    auto c = lsi::linalg::Multiply(a, b);
    benchmark::DoNotOptimize(c);
  }
  lsi::par::SetThreads(0);
}

// --- SIMD dispatch-path benchmarks -----------------------------------
//
// Each benchmark pins one lsi::simd path for its duration, so one run of
// this binary reports every path the host supports side by side; paths
// the host cannot execute are skipped (they stay visible in the JSON as
// errored entries, which the bench guard ignores), so CI's base-vs-head
// comparison covers every path its runner has.

/// Pins `path` or skips the benchmark. Restores auto dispatch on scope
/// exit so the pin never leaks into other benchmarks.
class ScopedSimdPath {
 public:
  ScopedSimdPath(benchmark::State& state, lsi::linalg::simd::Path path)
      : ok_(lsi::linalg::simd::SetPath(path)) {
    if (!ok_) state.SkipWithError("simd path unsupported on this host");
  }
  ~ScopedSimdPath() { lsi::linalg::simd::ResetPath(); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

// Cosine scoring over V_k D_k — the LsiEngine::Query / QueryBatch inner
// loop: one latent query vector against every document row, normalized
// by cached norms. range(0) = documents, range(1) = threads; the latent
// rank is fixed at 128 (a mid-size production rank).
void BM_CosineScoreThreads(benchmark::State& state,
                           lsi::linalg::simd::Path path) {
  const std::size_t docs = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRank = 128;
  lsi::Rng rng(31);
  auto doc_vectors = lsi::linalg::GaussianMatrix(docs, kRank, rng);
  auto query = lsi::linalg::GaussianMatrix(1, kRank, rng);
  const double* q = query.RowPtr(0);
  ScopedSimdPath pin(state, path);
  if (!pin.ok()) return;
  std::vector<double> norms(docs);
  for (std::size_t j = 0; j < docs; ++j) {
    norms[j] = std::sqrt(
        lsi::linalg::simd::SquaredNorm(doc_vectors.RowPtr(j), kRank));
  }
  const double query_norm = std::sqrt(lsi::linalg::simd::SquaredNorm(q, kRank));
  std::vector<double> scores(docs, 0.0);
  lsi::par::SetThreads(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    lsi::par::ParallelFor(
        0, docs, 256, [&](std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) {
            scores[j] =
                lsi::linalg::simd::Dot(q, doc_vectors.RowPtr(j), kRank) /
                (query_norm * norms[j]);
          }
        });
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  lsi::par::SetThreads(0);
  state.counters["docs"] = static_cast<double>(docs);
}

// Raw dot-product kernel throughput at a serving-size rank. Both operands
// start on a cache line. A heap block lands wherever the rows that ran
// before left room, and when that put the 4096 operands off a 32-byte
// boundary, half of the AVX2 loads straddled cache lines: repetitions
// of that row read about 0.55 or 0.93 us depending on the heap.
void BM_SimdDot(benchmark::State& state, lsi::linalg::simd::Path path) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  lsi::Rng rng(37);
  const auto data = lsi::linalg::GaussianMatrix(2, n, rng);
  struct alignas(64) Line {
    double values[64 / sizeof(double)];
  };
  std::vector<Line> lines((2 * n * sizeof(double) + 63) / 64);
  double* a = lines.front().values;
  double* b = a + n;
  std::copy(data.RowPtr(0), data.RowPtr(0) + n, a);
  std::copy(data.RowPtr(1), data.RowPtr(1) + n, b);
  ScopedSimdPath pin(state, path);
  if (!pin.ok()) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsi::linalg::simd::Dot(a, b, n));
  }
}

// CSR SpMV through the dispatch layer (gathered sparse dot per row).
void BM_SpmvPath(benchmark::State& state, lsi::linalg::simd::Path path) {
  lsi::model::SeparableModelParams params;
  params.num_topics = 10;
  params.terms_per_topic = 200;
  lsi::bench::BenchCorpus corpus = lsi::bench::MakeSeparableCorpus(
      params, static_cast<std::size_t>(state.range(0)), 777);
  lsi::linalg::DenseVector x(corpus.matrix.cols(), 1.0);
  ScopedSimdPath pin(state, path);
  if (!pin.ok()) return;
  lsi::par::SetThreads(1);
  for (auto _ : state) {
    auto y = corpus.matrix.Multiply(x);
    benchmark::DoNotOptimize(y);
  }
  lsi::par::SetThreads(0);
  state.counters["nnz"] = static_cast<double>(corpus.matrix.NumNonZeros());
}

// Dense GEMM panel micro-kernels through the dispatch layer.
void BM_GemmPath(benchmark::State& state, lsi::linalg::simd::Path path) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  lsi::Rng rng(23);
  auto a = lsi::linalg::GaussianMatrix(n, n / 2, rng);
  auto b = lsi::linalg::GaussianMatrix(n / 2, n / 4, rng);
  ScopedSimdPath pin(state, path);
  if (!pin.ok()) return;
  lsi::par::SetThreads(1);
  for (auto _ : state) {
    auto c = lsi::linalg::Multiply(a, b);
    benchmark::DoNotOptimize(c);
  }
  lsi::par::SetThreads(0);
}

// The query fold-in stage, q_k = U_k^T q, for a 4-term query against a
// range(0)-term vocabulary at rank 100: LsiIndex::Fold walks only the
// query's rows of U_k, so the cost should not grow with the vocabulary.
// U_k is Gaussian (the kernel's cost does not depend on its values).
void BM_FoldInQuery(benchmark::State& state) {
  const std::size_t terms = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRank = 100;
  lsi::Rng rng(41);
  lsi::linalg::SvdResult svd;
  svd.u = lsi::linalg::GaussianMatrix(terms, kRank, rng);
  svd.singular_values = lsi::linalg::DenseVector(kRank, 1.0);
  svd.v = lsi::linalg::GaussianMatrix(kRank, kRank, rng);
  const lsi::core::LsiIndex index =
      lsi::bench::Unwrap(lsi::core::LsiIndex::FromSvd(std::move(svd)),
                         "FromSvd");
  const lsi::core::TermWeights query = {{terms / 7, 1.0},
                                        {terms / 3, 0.5},
                                        {terms / 2, 2.0},
                                        {terms - 1, 0.25}};
  for (auto _ : state) {
    auto folded = index.Fold(query);
    benchmark::DoNotOptimize(folded);
  }
}

// One QueryCache::Get hit on a warmed key, shaped like the router's key
// for a repeated query: the copy of a ten-hit answer and the one Mutex
// the serve path still takes per repeat. CI compares it base vs head
// with LSI_DEADLOCK_DETECT unset, which holds the detector-off cost of
// that Mutex to the merge base.
void BM_QueryCacheHit(benchmark::State& state) {
  lsi::serve::QueryCache cache;
  const std::string key = "shard|astronauts near the moon|k10|n4";
  std::vector<lsi::core::EngineHit> hits;
  for (std::size_t i = 0; i < 10; ++i) {
    hits.push_back({"doc" + std::to_string(i), i, 1.0 / (1.0 + i)});
  }
  cache.Put(key, hits);
  for (auto _ : state) {
    auto cached = cache.Get(key);
    benchmark::DoNotOptimize(cached);
  }
}

}  // namespace

BENCHMARK(BM_QueryCacheHit);
BENCHMARK(BM_FoldInQuery)->Arg(5000)->Arg(50000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SparseMatVec)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SparseMatVecTranspose)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HouseholderQr)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TextPipeline)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AliasSampling);
BENCHMARK(BM_SparseMatVecThreads)
    ->Args({2000, 1})->Args({2000, 4})->Args({2000, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GramApplyThreads)
    ->Args({2000, 1})->Args({2000, 4})->Args({2000, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DenseGemmThreads)
    ->Args({600, 1})->Args({600, 4})->Args({600, 8})
    ->Unit(benchmark::kMillisecond);

// Per-path variants: every path is registered on every host; paths the
// hardware cannot run error out via SkipWithError and the bench guard
// drops them, so one JSON schema covers x86, aarch64, and scalar-only.
using lsi::linalg::simd::Path;
BENCHMARK_CAPTURE(BM_CosineScoreThreads, scalar, Path::kScalar)
    ->Args({2000, 1})->Args({2000, 4})->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CosineScoreThreads, avx2, Path::kAvx2)
    ->Args({2000, 1})->Args({2000, 4})->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CosineScoreThreads, neon, Path::kNeon)
    ->Args({2000, 1})->Args({2000, 4})->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SimdDot, scalar, Path::kScalar)->Arg(128)->Arg(4096);
BENCHMARK_CAPTURE(BM_SimdDot, avx2, Path::kAvx2)->Arg(128)->Arg(4096);
BENCHMARK_CAPTURE(BM_SimdDot, neon, Path::kNeon)->Arg(128)->Arg(4096);
BENCHMARK_CAPTURE(BM_SpmvPath, scalar, Path::kScalar)
    ->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SpmvPath, avx2, Path::kAvx2)
    ->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SpmvPath, neon, Path::kNeon)
    ->Arg(2000)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmPath, scalar, Path::kScalar)
    ->Arg(600)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GemmPath, avx2, Path::kAvx2)
    ->Arg(600)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GemmPath, neon, Path::kNeon)
    ->Arg(600)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
