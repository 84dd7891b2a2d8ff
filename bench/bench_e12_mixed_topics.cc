// Experiment E12: the paper's §6 open question — "Can Theorem 2 be
// extended to a model where documents could belong to several topics?"
// We generate corpora whose documents mix 1..4 topics (Dirichlet-style
// weights) and measure how well rank-k LSI still recovers the structure:
// dominant-topic accuracy, and full mixture-weight recovery by
// decomposing each LSI document vector over the folded topic prototypes.
//
// A second table reports what mixing costs the bounded document scan
// (LsiIndex::ScanTopK with top_k > 0): rows scored per query and its time
// against a full scan, on larger corpora of the same model. The bounded
// scan may score more rows when topics blur; it must never differ.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "bench_util.h"
#include "core/lsi_index.h"
#include "core/mixture_analysis.h"
#include "core/skew.h"
#include "linalg/simd/simd.h"
#include "model/corpus_model.h"
#include "model/separable_model.h"
#include "obs/metrics.h"

namespace {

constexpr std::size_t kTopics = 6;
constexpr std::size_t kTermsPerTopic = 60;
constexpr std::size_t kScanDocuments = 20000;
constexpr std::size_t kScanQueries = 200;
constexpr std::size_t kTopK = 10;

// The mixed-topic model with `topics_per_doc` topics per document.
lsi::model::CorpusModel MixedModel(std::size_t topics_per_doc) {
  lsi::model::SeparableModelParams params;
  params.num_topics = kTopics;
  params.terms_per_topic = kTermsPerTopic;
  params.epsilon = 0.0;
  auto base = lsi::bench::Unwrap(lsi::model::BuildSeparableModel(params),
                                 "base model");
  std::vector<lsi::model::Topic> topics;
  for (std::size_t t = 0; t < kTopics; ++t) topics.push_back(base.topic(t));
  auto sampler = std::make_shared<lsi::model::MixedDocumentSampler>(
      kTopics, topics_per_doc, 120, 180);
  return lsi::bench::Unwrap(
      lsi::model::CorpusModel::Create(base.UniverseSize(), std::move(topics),
                                      {}, sampler),
      "model");
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The full scan the bounded one replaces, on one thread: score every row
// with ScanTopK's formula, then keep the top k.
std::vector<lsi::core::SearchResult> FullScan(
    const lsi::core::LsiIndex& index, const std::vector<double>& norms,
    const double* probe, std::size_t exclude) {
  const std::size_t k = index.rank();
  const double probe_norm = std::sqrt(lsi::linalg::simd::SquaredNorm(probe, k));
  std::vector<double> scores(index.NumDocuments(), 0.0);
  for (std::size_t j = 0; j < scores.size(); ++j) {
    if (index.IsFloorRow(lsi::core::LsiIndex::Rows::kDocuments, j)) continue;
    scores[j] = lsi::linalg::simd::Dot(
                    probe, index.document_vectors().RowPtr(j), k) /
                (probe_norm * norms[j]);
  }
  scores[exclude] = -std::numeric_limits<double>::infinity();
  return lsi::core::RankScores(scores, kTopK);
}

// One row of the bounded-scan table: the last kScanQueries documents of
// a kScanDocuments-document corpus are the probes (more-like-this, the
// source excluded).
void ScanRow(std::size_t topics_per_doc) {
  const auto model = MixedModel(topics_per_doc);
  lsi::Rng rng(2200 + topics_per_doc);
  auto corpus = lsi::bench::Unwrap(
      model.GenerateCorpus(kScanDocuments + kScanQueries, rng), "corpus");
  auto matrix = lsi::bench::Unwrap(
      lsi::text::BuildTermDocumentMatrix(corpus.corpus), "matrix");
  lsi::core::LsiOptions options;
  options.rank = kTopics;
  auto index = lsi::bench::Unwrap(
      lsi::core::LsiIndex::Build(matrix, options), "LSI");
  const double cluster_ms = lsi::obs::MetricsRegistry::Global()
                                .GetGauge("lsi.index.cluster_ms")
                                .value();
  std::vector<double> norms(index.NumDocuments());
  for (std::size_t j = 0; j < norms.size(); ++j) {
    norms[j] = std::sqrt(lsi::linalg::simd::SquaredNorm(
        index.document_vectors().RowPtr(j), index.rank()));
  }
  lsi::obs::Counter& scored = lsi::obs::MetricsRegistry::Global().GetCounter(
      "lsi.index.rows_scored");
  double bounded_ms = 0.0;
  double full_ms = 0.0;
  std::uint64_t rows_scored = 0;
  std::size_t mismatches = 0;
  for (std::size_t q = 0; q < kScanQueries; ++q) {
    const std::size_t source = kScanDocuments + q;
    const lsi::linalg::DenseVector probe = index.DocumentVector(source);
    const std::uint64_t before = scored.value();
    auto start = std::chrono::steady_clock::now();
    const auto bounded = index.ScanTopK(
        lsi::core::LsiIndex::Rows::kDocuments, probe.data(), kTopK, source);
    bounded_ms += MillisSince(start);
    rows_scored += scored.value() - before;
    start = std::chrono::steady_clock::now();
    const auto full = FullScan(index, norms, probe.data(), source);
    full_ms += MillisSince(start);
    bool same = bounded.size() == full.size();
    for (std::size_t i = 0; same && i < full.size(); ++i) {
      same = bounded[i].document == full[i].document &&
             bounded[i].score == full[i].score;
    }
    mismatches += same ? 0 : 1;
  }
  const double per_query =
      static_cast<double>(rows_scored) / static_cast<double>(kScanQueries);
  std::printf("%14zu %14.0f %9.1f%% %12.4f %12.4f %10.1f %11zu\n",
              topics_per_doc, per_query,
              100.0 * per_query / static_cast<double>(index.NumDocuments()),
              bounded_ms / kScanQueries, full_ms / kScanQueries, cluster_ms,
              mismatches);
}

std::vector<lsi::linalg::DenseVector> Prototypes(
    const lsi::model::CorpusModel& model) {
  std::vector<lsi::linalg::DenseVector> out;
  for (std::size_t t = 0; t < model.NumTopics(); ++t) {
    lsi::linalg::DenseVector proto(model.UniverseSize());
    for (std::size_t term = 0; term < model.UniverseSize(); ++term) {
      proto[term] = model.topic(t).ProbabilityOf(
          static_cast<lsi::text::TermId>(term));
    }
    out.push_back(std::move(proto));
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== E12: documents mixing several topics (open problem) ===\n");
  std::printf("%zu topics x %zu terms, 300 docs, doclen U[120,180]\n\n",
              kTopics, kTermsPerTopic);
  std::printf("%14s %12s %12s %12s %14s\n", "topics/doc", "weight-MAE",
              "mix-cosine", "dom-top-acc", "NN-accuracy");

  for (std::size_t topics_per_doc : {1, 2, 3, 4}) {
    const auto model = MixedModel(topics_per_doc);
    lsi::Rng rng(1200 + topics_per_doc);
    auto corpus = lsi::bench::Unwrap(model.GenerateCorpus(300, rng),
                                     "corpus");
    auto matrix = lsi::bench::Unwrap(
        lsi::text::BuildTermDocumentMatrix(corpus.corpus), "matrix");

    lsi::core::LsiOptions options;
    options.rank = kTopics;
    auto index = lsi::bench::Unwrap(
        lsi::core::LsiIndex::Build(matrix, options), "LSI");

    auto weights = lsi::bench::Unwrap(
        lsi::core::EstimateMixtureWeights(index, Prototypes(model)),
        "mixtures");
    lsi::linalg::DenseMatrix truth(300, kTopics, 0.0);
    for (std::size_t d = 0; d < 300; ++d) {
      for (const auto& [topic, weight] : corpus.specs[d].topics.components) {
        truth(d, topic) = weight;
      }
    }
    auto recovery = lsi::bench::Unwrap(
        lsi::core::CompareMixtures(weights, truth), "compare");
    auto nn = lsi::bench::Unwrap(
        lsi::core::NearestNeighborTopicAccuracy(index.document_vectors(),
                                                corpus.topic_of_document),
        "NN accuracy");
    std::printf("%14zu %12.4f %12.4f %11.1f%% %13.1f%%\n", topics_per_doc,
                recovery.mean_absolute_error, recovery.mean_cosine,
                100.0 * recovery.dominant_topic_accuracy, 100.0 * nn);
  }
  std::printf(
      "\nexpected shape: mixture recovery stays strong (cosine > 0.9) as "
      "documents mix more topics — evidence that the paper's conjecture "
      "extends: rank-k LSI represents multi-topic documents as the "
      "corresponding combinations of topic directions, even though "
      "Theorem 2's proof technique (block-diagonal A) no longer applies. "
      "Dominant-topic and NN metrics soften with more mixing, as "
      "documents genuinely straddle topics.\n");

  std::printf("\n=== E12b: bounded scan on mixed topics ===\n");
  std::printf(
      "%zu docs (rank %zu), %zu more-like-this probes, top %zu; full = "
      "every row scored on one thread\n\n",
      kScanDocuments + kScanQueries, kTopics, kScanQueries, kTopK);
  std::printf("%14s %14s %10s %12s %12s %10s %11s\n", "topics/doc",
              "rows/query", "share", "bounded-ms", "full-ms", "cluster-ms",
              "mismatches");
  for (std::size_t topics_per_doc : {1, 2, 3, 4}) ScanRow(topics_per_doc);
  std::printf(
      "\nexpected shape: the bound must visit every cluster that holds a "
      "row as close to the probe as its 10th hit. Pure documents of one "
      "topic are nearly parallel, so that is the whole topic (about 1/6 "
      "of the rows here); mixed documents spread over the topic simplex "
      "and fewer rows crowd the top. Mismatches stay 0 at any mixing.\n");
  return 0;
}
