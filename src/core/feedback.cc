#include "core/feedback.h"

namespace lsi::core {

Result<linalg::DenseVector> RocchioExpandQuery(
    const LsiIndex& index, const linalg::DenseVector& query,
    const RocchioOptions& options) {
  if (options.feedback_documents == 0) {
    return Status::InvalidArgument(
        "Rocchio: feedback_documents must be >= 1");
  }
  // One fold serves both the first pass (ranked as Search ranks it) and
  // the expansion.
  LSI_ASSIGN_OR_RETURN(FoldedVector fold, index.Fold(query));
  const std::vector<SearchResult> first_pass = index.ScanTopK(
      LsiIndex::Rows::kDocuments, fold.Probe(), options.feedback_documents);
  const linalg::DenseVector& folded = fold.latent;

  linalg::DenseVector centroid(index.rank(), 0.0);
  std::size_t used = 0;
  for (const SearchResult& hit : first_pass) {
    if (hit.score <= 0.0) continue;  // Don't learn from non-matches.
    centroid.Axpy(1.0, index.DocumentVector(hit.document));
    ++used;
  }
  if (used > 0) {
    centroid.Scale(1.0 / static_cast<double>(used));
    // Scale the centroid to the query's magnitude so beta means what it
    // says regardless of document lengths.
    double folded_norm = folded.Norm();
    double centroid_norm = centroid.Norm();
    if (centroid_norm > 0.0 && folded_norm > 0.0) {
      centroid.Scale(folded_norm / centroid_norm);
    }
  }

  linalg::DenseVector expanded = folded;
  expanded.Scale(options.alpha);
  expanded.Axpy(options.beta, centroid);
  return expanded;
}

Result<std::vector<SearchResult>> SearchWithFeedback(
    const LsiIndex& index, const linalg::DenseVector& query,
    std::size_t top_k, const RocchioOptions& options) {
  LSI_ASSIGN_OR_RETURN(linalg::DenseVector expanded,
                       RocchioExpandQuery(index, query, options));
  const double* probe = expanded.Norm() > 0.0 ? expanded.data() : nullptr;
  return index.ScanTopK(LsiIndex::Rows::kDocuments, probe, top_k);
}

}  // namespace lsi::core
