#include "text/term_weighting.h"

#include <cmath>
#include <unordered_map>
#include <vector>

namespace lsi::text {
namespace {

/// Per-term global statistics needed by the weighting schemes.
struct GlobalStats {
  /// Global occurrence count of each term across the corpus.
  std::vector<double> global_frequency;
  /// 1 - normalized entropy of the term's distribution over documents
  /// (the log-entropy global weight). 1 for terms concentrated in one
  /// document, ~0 for terms spread evenly over all documents.
  std::vector<double> entropy_weight;
};

/// Only log-entropy reads these, so every other scheme skips the pass
/// (one log per nonzero) and gets empty stats.
GlobalStats ComputeGlobalStats(const Corpus& corpus, WeightingScheme scheme) {
  GlobalStats stats;
  if (scheme != WeightingScheme::kLogEntropy) return stats;
  const std::size_t n = corpus.NumTerms();
  const std::size_t m = corpus.NumDocuments();
  stats.global_frequency.assign(n, 0.0);
  for (std::size_t d = 0; d < m; ++d) {
    for (const auto& [term, count] : corpus.document(d).counts()) {
      stats.global_frequency[term] += static_cast<double>(count);
    }
  }
  stats.entropy_weight.assign(n, 1.0);
  if (m <= 1) return stats;  // Entropy undefined for a single document.
  const double log_m = std::log(static_cast<double>(m));
  std::vector<double> entropy(n, 0.0);
  for (std::size_t d = 0; d < m; ++d) {
    for (const auto& [term, count] : corpus.document(d).counts()) {
      double p = static_cast<double>(count) / stats.global_frequency[term];
      entropy[term] += p * std::log(p);
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    stats.entropy_weight[t] = 1.0 + entropy[t] / log_m;
  }
  return stats;
}

double GlobalWeight(WeightingScheme scheme, const Corpus& corpus,
                    const GlobalStats& stats, TermId term) {
  switch (scheme) {
    case WeightingScheme::kBinary:
    case WeightingScheme::kTermFrequency:
    case WeightingScheme::kLogTermFrequency:
      return 1.0;
    case WeightingScheme::kTfIdf: {
      std::size_t df = corpus.DocumentFrequency(term);
      if (df == 0) return 0.0;
      return std::log(static_cast<double>(corpus.NumDocuments()) /
                      static_cast<double>(df));
    }
    case WeightingScheme::kLogEntropy:
      return stats.entropy_weight[term];
  }
  return 1.0;
}

}  // namespace

Result<linalg::SparseMatrix> BuildTermDocumentMatrix(
    const Corpus& corpus, const TermDocumentMatrixOptions& options) {
  if (corpus.NumDocuments() == 0 || corpus.NumTerms() == 0) {
    return Status::InvalidArgument(
        "BuildTermDocumentMatrix requires a nonempty corpus");
  }
  const std::size_t n = corpus.NumTerms();
  const std::size_t m = corpus.NumDocuments();
  const std::vector<double> global =
      ComputeGlobalWeights(corpus, options.scheme);

  // One document's nonzero (term, weight) entries, in term order.
  std::vector<std::pair<TermId, double>> column;
  auto weigh_column = [&](std::size_t d) {
    column.clear();
    for (const auto& [term, count] : corpus.document(d).counts()) {
      double w = LocalTermWeight(options.scheme, count) * global[term];
      if (w != 0.0) column.emplace_back(term, w);
    }
  };

  // CSR straight from the documents: count each term's entries, take the
  // prefix sum, then place entries walking the documents in order. Each
  // document's counts() are term-sorted and unique, so every row's
  // columns come out strictly ascending with no sort.
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t d = 0; d < m; ++d) {
    weigh_column(d);
    for (const auto& entry : column) ++offsets[entry.first + 1];
  }
  for (std::size_t t = 0; t < n; ++t) offsets[t + 1] += offsets[t];
  std::vector<std::size_t> cols(offsets[n]);
  std::vector<double> values(offsets[n]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t d = 0; d < m; ++d) {
    weigh_column(d);
    double norm_sq = 0.0;
    for (const auto& entry : column) norm_sq += entry.second * entry.second;
    double scale = 1.0;
    if (options.normalize_columns && norm_sq > 0.0) {
      scale = 1.0 / std::sqrt(norm_sq);
    }
    for (const auto& [term, w] : column) {
      const std::size_t p = cursor[term]++;
      cols[p] = d;
      values[p] = w * scale;
    }
  }
  return linalg::SparseMatrix::FromCsr(n, m, std::move(offsets),
                                       std::move(cols), std::move(values));
}

double LocalTermWeight(WeightingScheme scheme, std::size_t count) {
  switch (scheme) {
    case WeightingScheme::kBinary:
      return count > 0 ? 1.0 : 0.0;
    case WeightingScheme::kTermFrequency:
      return static_cast<double>(count);
    case WeightingScheme::kLogTermFrequency:
    case WeightingScheme::kLogEntropy:
      return count > 0 ? 1.0 + std::log(static_cast<double>(count)) : 0.0;
    case WeightingScheme::kTfIdf:
      return static_cast<double>(count);
  }
  return 0.0;
}

std::vector<double> ComputeGlobalWeights(const Corpus& corpus,
                                         WeightingScheme scheme) {
  GlobalStats stats = ComputeGlobalStats(corpus, scheme);
  std::vector<double> weights(corpus.NumTerms(), 1.0);
  for (std::size_t t = 0; t < corpus.NumTerms(); ++t) {
    weights[t] = GlobalWeight(scheme, corpus, stats,
                              static_cast<TermId>(t));
  }
  return weights;
}

linalg::DenseVector WeightQueryVector(
    const Corpus& corpus,
    const std::vector<std::pair<TermId, std::size_t>>& counts,
    WeightingScheme scheme) {
  GlobalStats stats = ComputeGlobalStats(corpus, scheme);
  linalg::DenseVector query(corpus.NumTerms(), 0.0);
  for (const auto& [term, count] : counts) {
    if (term >= corpus.NumTerms()) continue;
    query[term] = LocalTermWeight(scheme, count) *
                  GlobalWeight(scheme, corpus, stats, term);
  }
  return query;
}

}  // namespace lsi::text
