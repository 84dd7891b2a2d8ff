#include "core/rp_lsi.h"

#include <algorithm>
#include <cmath>

namespace lsi::core {

Result<RpLsiIndex> RpLsiIndex::Build(
    const linalg::SparseMatrix& term_document, const RpLsiOptions& options) {
  const std::size_t n = term_document.rows();
  const std::size_t m = term_document.cols();
  if (n == 0 || m == 0) {
    return Status::InvalidArgument("RpLsiIndex: empty term-document matrix");
  }
  if (options.rank == 0) {
    return Status::InvalidArgument("RpLsiIndex: rank must be >= 1");
  }
  if (options.rank_multiplier < 1.0) {
    return Status::InvalidArgument(
        "RpLsiIndex: rank_multiplier must be >= 1");
  }

  std::size_t inner_rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(options.rank) * options.rank_multiplier));

  std::size_t l = options.projection_dim;
  if (l == 0) {
    l = std::max(RandomProjection::RecommendedDimension(n, 0.5),
                 2 * inner_rank);
  }
  l = std::min(l, n);
  if (l < inner_rank) {
    // Keep the projected problem solvable; clamp the inner rank.
    inner_rank = l;
  }
  inner_rank = std::min(inner_rank, std::min(l, m));
  if (inner_rank == 0) {
    return Status::InvalidArgument(
        "RpLsiIndex: projected rank collapsed to zero");
  }

  LSI_ASSIGN_OR_RETURN(
      RandomProjection projection,
      RandomProjection::Create(n, l, options.seed, options.projection_kind));
  LSI_ASSIGN_OR_RETURN(linalg::DenseMatrix projected,
                       projection.ProjectColumns(term_document));

  LsiOptions lsi_options;
  lsi_options.rank = inner_rank;
  lsi_options.solver = options.solver;
  LSI_ASSIGN_OR_RETURN(LsiIndex inner,
                       LsiIndex::Build(projected, lsi_options));
  return RpLsiIndex(std::move(projection), std::move(inner));
}

Result<std::vector<SearchResult>> RpLsiIndex::Search(
    const linalg::DenseVector& query, std::size_t top_k) const {
  LSI_ASSIGN_OR_RETURN(linalg::DenseVector projected,
                       projection_.Project(query));
  return inner_.Search(projected, top_k);
}

Result<linalg::DenseMatrix> RpLsiIndex::Reconstruct(
    const linalg::SparseMatrix& a) const {
  if (a.rows() != NumTerms() || a.cols() != NumDocuments()) {
    return Status::InvalidArgument(
        "RpLsiIndex::Reconstruct: matrix shape mismatch with the index");
  }
  // B_2k = A V V^T where V (m x r) holds the kept right singular vectors
  // of the projected matrix. Compute (A V) V^T to stay O(nnz r + n m r).
  const linalg::DenseMatrix v = inner_.svd().v;
  linalg::DenseMatrix av = a.MultiplyDense(v);       // n x r.
  return linalg::MultiplyABt(av, v);                 // n x m.
}

}  // namespace lsi::core
