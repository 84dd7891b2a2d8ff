#include "core/lsi_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/operators.h"
#include "linalg/simd/simd.h"
#include "obs/span.h"
#include "par/parallel_for.h"

namespace lsi::core {
namespace {

Result<linalg::SvdResult> ComputeTruncatedSvd(const linalg::LinearOperator& a,
                                              const LsiOptions& options) {
  const std::size_t min_dim = std::min(a.rows(), a.cols());
  if (options.rank == 0 || options.rank > min_dim) {
    return Status::InvalidArgument(
        "LsiIndex: rank must satisfy 1 <= rank <= min(terms, documents)");
  }
  switch (options.solver) {
    case SvdSolver::kLanczos:
      return linalg::LanczosSvd(a, options.rank, options.lanczos);
    case SvdSolver::kRandomized:
      return linalg::RandomizedSvd(a, options.rank, options.randomized);
    case SvdSolver::kGkl:
      return linalg::GklSvd(a, options.rank, options.gkl);
    case SvdSolver::kJacobi:
      break;  // Handled below: needs a materialized matrix.
  }
  return Status::InvalidArgument("LsiIndex: unknown solver");
}

Result<linalg::SvdResult> ComputeJacobi(const linalg::DenseMatrix& dense,
                                        std::size_t rank) {
  if (rank == 0 || rank > std::min(dense.rows(), dense.cols())) {
    return Status::InvalidArgument(
        "LsiIndex: rank must satisfy 1 <= rank <= min(terms, documents)");
  }
  LSI_ASSIGN_OR_RETURN(linalg::SvdResult full, linalg::JacobiSvd(dense));
  return full.Truncated(rank);
}

// A vector whose norm is at most this fraction of its reference norm
// folds to numerically nothing: cosines against it are rounding noise.
constexpr double kFloorRatio = 1e-12;

// The ranking order: score descending, ties by ascending id. It is a
// total order, so every selection strategy and chunking yields the same
// results.
bool Better(const SearchResult& a, const SearchResult& b) {
  return a.score > b.score || (a.score == b.score && a.document < b.document);
}

// Adds `r` to `best`, which keeps the best `top_k` results offered so
// far (all when top_k == 0). Bounded, `best` is a heap whose front is
// the worst result kept.
void Offer(std::vector<SearchResult>& best, const SearchResult& r,
           std::size_t top_k) {
  if (top_k == 0 || best.size() < top_k) {
    best.push_back(r);
    if (top_k != 0) std::push_heap(best.begin(), best.end(), Better);
  } else if (Better(r, best.front())) {
    std::pop_heap(best.begin(), best.end(), Better);
    best.back() = r;
    std::push_heap(best.begin(), best.end(), Better);
  }
}

// The nonzero entries of a dense term-space vector, by ascending term:
// what the dense entry points hand to the sparse ones. Fails unless the
// vector has `num_terms` entries.
Result<TermWeights> Nonzeros(const linalg::DenseVector& v,
                             std::size_t num_terms) {
  if (v.size() != num_terms) {
    return Status::InvalidArgument(
        "LsiIndex: term-space vector dimension must equal the number of "
        "terms");
  }
  TermWeights terms;
  for (std::size_t t = 0; t < v.size(); ++t) {
    if (v[t] != 0.0) terms.emplace_back(t, v[t]);
  }
  return terms;
}

// A copy of `v` with capacity for one more element.
template <typename T>
std::vector<T> WithSpareSlot(const std::vector<T>& v) {
  std::vector<T> copy;
  copy.reserve(v.size() + 1);
  copy.assign(v.begin(), v.end());
  return copy;
}

}  // namespace

const double* FoldedVector::Probe() const {
  return latent.Norm() <= kFloorRatio * term_norm ? nullptr : latent.data();
}

LsiIndex::LsiIndex(linalg::SvdResult svd) : svd_(std::move(svd)) {
  obs::ScopedSpan span("project");
  // Document vectors: V_k D_k (row j = sigma-weighted coordinates of
  // document j in the latent space).
  const std::size_t m = svd_.v.rows();
  const std::size_t k = svd_.rank();
  document_vectors_ = linalg::DenseMatrix(m, k);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < k; ++i) {
      document_vectors_(j, i) = svd_.v(j, i) * svd_.singular_values[i];
    }
  }
  RecomputeNorms();
}

LsiIndex::LsiIndex(linalg::SvdResult svd,
                   linalg::DenseMatrix document_vectors)
    : svd_(std::move(svd)), document_vectors_(std::move(document_vectors)) {
  RecomputeNorms();
}

LsiIndex::LsiIndex(const LsiIndex& other)
    : svd_(other.svd_),
      document_vectors_(other.document_vectors_.CopyWithSpareRow()),
      document_norms_(WithSpareSlot(other.document_norms_)),
      max_document_norm_(other.max_document_norm_),
      term_norms_(other.term_norms_),
      max_term_norm_(other.max_term_norm_),
      deleted_(WithSpareSlot(other.deleted_)),
      num_deleted_(other.num_deleted_),
      slice_(other.slice_) {}

LsiIndex& LsiIndex::operator=(const LsiIndex& other) {
  if (this != &other) *this = LsiIndex(other);
  return *this;
}

Result<LsiIndex> LsiIndex::Slice(const std::vector<std::size_t>& rows) const {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= NumDocuments() || (i > 0 && rows[i] <= rows[i - 1])) {
      return Status::InvalidArgument(
          "LsiIndex::Slice: rows must ascend strictly and be below the "
          "number of documents");
    }
  }
  LsiIndex slice;
  slice.svd_.u = svd_.u;
  slice.svd_.singular_values = svd_.singular_values;
  // Ascending ids put the built documents, the ones with a V_k row,
  // before the folded-in ones.
  slice.svd_.v = svd_.v.SelectRows(std::vector<std::size_t>(
      rows.begin(), std::lower_bound(rows.begin(), rows.end(), svd_.v.rows())));
  slice.document_vectors_ = document_vectors_.SelectRows(rows);
  slice.document_norms_.reserve(rows.size());
  slice.deleted_.reserve(rows.size());
  for (std::size_t j : rows) {
    slice.document_norms_.push_back(document_norms_[j]);
    slice.deleted_.push_back(IsDeleted(j) ? 1 : 0);
    slice.num_deleted_ += slice.deleted_.back();
  }
  slice.max_document_norm_ = max_document_norm_;
  slice.term_norms_ = term_norms_;
  slice.max_term_norm_ = max_term_norm_;
  slice.slice_ = true;
  return slice;
}

void LsiIndex::RecomputeNorms() {
  document_norms_.assign(document_vectors_.rows(), 0.0);
  deleted_.assign(document_vectors_.rows(), 0);
  num_deleted_ = 0;
  max_document_norm_ = 0.0;
  for (std::size_t j = 0; j < document_vectors_.rows(); ++j) {
    document_norms_[j] = std::sqrt(linalg::simd::SquaredNorm(
        document_vectors_.RowPtr(j), document_vectors_.cols()));
    max_document_norm_ = std::max(max_document_norm_, document_norms_[j]);
  }
  term_norms_.assign(NumTerms(), 0.0);
  max_term_norm_ = 0.0;
  std::vector<double> row(rank());
  for (std::size_t t = 0; t < NumTerms(); ++t) {
    TermRow(t, row.data());
    term_norms_[t] = std::sqrt(linalg::simd::SquaredNorm(row.data(), rank()));
    max_term_norm_ = std::max(max_term_norm_, term_norms_[t]);
  }
}

void LsiIndex::TermRow(std::size_t t, double* out) const {
  for (std::size_t i = 0; i < rank(); ++i) {
    out[i] = svd_.u(t, i) * svd_.singular_values[i];
  }
}

Result<LsiIndex> LsiIndex::Build(const linalg::SparseMatrix& term_document,
                                 const LsiOptions& options) {
  if (options.solver == SvdSolver::kJacobi) {
    linalg::SvdResult svd;
    {
      obs::ScopedSpan span("factor");
      LSI_ASSIGN_OR_RETURN(
          svd, ComputeJacobi(term_document.ToDense(), options.rank));
    }
    return LsiIndex(std::move(svd));
  }
  linalg::SparseOperator op(term_document);
  linalg::SvdResult svd;
  {
    obs::ScopedSpan span("factor");
    LSI_ASSIGN_OR_RETURN(svd, ComputeTruncatedSvd(op, options));
  }
  return LsiIndex(std::move(svd));
}

Result<LsiIndex> LsiIndex::Build(const linalg::DenseMatrix& term_document,
                                 const LsiOptions& options) {
  if (options.solver == SvdSolver::kJacobi) {
    linalg::SvdResult svd;
    {
      obs::ScopedSpan span("factor");
      LSI_ASSIGN_OR_RETURN(svd, ComputeJacobi(term_document, options.rank));
    }
    return LsiIndex(std::move(svd));
  }
  linalg::DenseOperator op(term_document);
  linalg::SvdResult svd;
  {
    obs::ScopedSpan span("factor");
    LSI_ASSIGN_OR_RETURN(svd, ComputeTruncatedSvd(op, options));
  }
  return LsiIndex(std::move(svd));
}

Result<LsiIndex> LsiIndex::FromSvd(linalg::SvdResult svd) {
  if (svd.rank() == 0 || svd.u.cols() != svd.rank() ||
      svd.v.cols() != svd.rank() || svd.u.rows() == 0 || svd.v.rows() == 0) {
    return Status::InvalidArgument(
        "LsiIndex::FromSvd: inconsistent SVD factor shapes");
  }
  return LsiIndex(std::move(svd));
}

Result<FoldedVector> LsiIndex::Fold(const TermWeights& terms) const {
  const std::size_t k = rank();
  FoldedVector folded{linalg::DenseVector(k, 0.0), 0.0};
  double squared_norm = 0.0;
  std::size_t min_term = 0;
  for (const auto& [term, weight] : terms) {
    if (term < min_term || term >= NumTerms()) {
      return Status::InvalidArgument(
          "Fold: term ids must ascend strictly and be below the number of "
          "terms");
    }
    min_term = term + 1;
    if (weight == 0.0) continue;
    linalg::simd::Axpy(folded.latent.data(), weight, svd_.u.RowPtr(term), k);
    squared_norm += weight * weight;
  }
  folded.term_norm = std::sqrt(squared_norm);
  return folded;
}

Result<FoldedVector> LsiIndex::Fold(const linalg::DenseVector& vector) const {
  LSI_ASSIGN_OR_RETURN(TermWeights terms, Nonzeros(vector, NumTerms()));
  return Fold(terms);
}

Result<std::size_t> LsiIndex::FoldInDocument(const TermWeights& document,
                                             double* residual_angle) {
  LSI_ASSIGN_OR_RETURN(FoldedVector folded, Fold(document));
  const double folded_norm = folded.latent.Norm();
  if (residual_angle != nullptr) {
    // U_k has orthonormal columns, so ||U_k^T d|| is the length of d's
    // projection onto span(U_k) and the residual angle is
    // acos(||U_k^T d|| / ||d||). Guard rounding: the ratio can exceed 1
    // by an ulp. A zero document projects exactly (angle 0).
    if (folded.term_norm == 0.0) {
      *residual_angle = 0.0;
    } else {
      const double ratio =
          std::min(1.0, std::max(0.0, folded_norm / folded.term_norm));
      *residual_angle = std::acos(ratio);
    }
  }
  document_vectors_.AppendRow(folded.latent);
  document_norms_.push_back(folded_norm);
  max_document_norm_ = std::max(max_document_norm_, folded_norm);
  deleted_.push_back(0);
  return NumDocuments() - 1;
}

Result<std::size_t> LsiIndex::FoldInDocument(
    const linalg::DenseVector& term_vector, double* residual_angle) {
  LSI_ASSIGN_OR_RETURN(TermWeights terms, Nonzeros(term_vector, NumTerms()));
  return FoldInDocument(terms, residual_angle);
}

Status LsiIndex::MarkDeleted(std::size_t j) {
  if (slice_) {
    return Status::FailedPrecondition(
        "MarkDeleted: a slice cannot rescan its source's floor reference");
  }
  if (j >= NumDocuments()) {
    return Status::OutOfRange("MarkDeleted: document index out of range");
  }
  if (deleted_.size() < NumDocuments()) deleted_.resize(NumDocuments(), 0);
  if (deleted_[j] != 0) return Status::OK();
  deleted_[j] = 1;
  ++num_deleted_;
  const std::size_t k = document_vectors_.cols();
  for (std::size_t i = 0; i < k; ++i) document_vectors_(j, i) = 0.0;
  const bool was_max = document_norms_[j] >= max_document_norm_;
  document_norms_[j] = 0.0;
  if (was_max) {
    max_document_norm_ = 0.0;
    for (double norm : document_norms_) {
      max_document_norm_ = std::max(max_document_norm_, norm);
    }
  }
  return Status::OK();
}

double LsiIndex::SingularValue(std::size_t i) const {
  LSI_CHECK(i < svd_.rank());
  return svd_.singular_values[i];
}

linalg::DenseVector LsiIndex::DocumentVector(std::size_t j) const {
  LSI_CHECK(j < NumDocuments());
  return document_vectors_.Row(j);
}

linalg::DenseMatrix LsiIndex::TermVectors() const {
  linalg::DenseMatrix term_vectors(NumTerms(), rank());
  for (std::size_t t = 0; t < NumTerms(); ++t) {
    TermRow(t, term_vectors.RowPtr(t));
  }
  return term_vectors;
}

linalg::DenseVector LsiIndex::TermVector(std::size_t t) const {
  LSI_CHECK(t < NumTerms());
  linalg::DenseVector row(rank());
  TermRow(t, row.data());
  return row;
}

Result<linalg::DenseVector> LsiIndex::FoldInQuery(
    const linalg::DenseVector& query) const {
  LSI_ASSIGN_OR_RETURN(FoldedVector folded, Fold(query));
  return std::move(folded.latent);
}

Result<std::vector<SearchResult>> LsiIndex::Search(
    const TermWeights& query, std::size_t top_k) const {
  obs::ScopedSpan span("score");
  LSI_ASSIGN_OR_RETURN(FoldedVector folded, Fold(query));
  return ScanTopK(Rows::kDocuments, folded.Probe(), top_k);
}

Result<std::vector<SearchResult>> LsiIndex::Search(
    const linalg::DenseVector& query, std::size_t top_k) const {
  LSI_ASSIGN_OR_RETURN(TermWeights terms, Nonzeros(query, NumTerms()));
  return Search(terms, top_k);
}

bool LsiIndex::IsFloorRow(Rows rows, std::size_t j) const {
  return rows == Rows::kTerms
             ? term_norms_[j] <= kFloorRatio * max_term_norm_
             : document_norms_[j] <= kFloorRatio * max_document_norm_;
}

std::vector<SearchResult> LsiIndex::ScanTopK(Rows rows, const double* probe,
                                             std::size_t top_k,
                                             std::size_t exclude) const {
  const bool terms = rows == Rows::kTerms;
  const std::size_t k = rank();
  const std::vector<double>& norms = terms ? term_norms_ : document_norms_;
  const double probe_norm =
      probe == nullptr ? 0.0
                       : std::sqrt(linalg::simd::SquaredNorm(probe, k));
  // Each chunk keeps a bounded top-k and the chunks fold in order. The
  // grain depends only on k, so the partition is the same at every
  // LSI_THREADS setting; Better is a total order, so the result is too.
  const std::size_t grain =
      std::max<std::size_t>(64, (1 << 16) / std::max<std::size_t>(1, k));
  auto scan = [&](std::size_t begin, std::size_t end) {
    std::vector<SearchResult> best;
    std::vector<double> term_row(terms ? k : 0);
    for (std::size_t j = begin; j < end; ++j) {
      const bool at_floor = IsFloorRow(rows, j);
      if (j == exclude || (terms ? at_floor : deleted_[j] != 0)) continue;
      double score = 0.0;
      if (probe != nullptr && !at_floor) {
        if (terms) TermRow(j, term_row.data());
        const double* row =
            terms ? term_row.data() : document_vectors_.RowPtr(j);
        score = linalg::simd::Dot(probe, row, k) / (probe_norm * norms[j]);
      }
      Offer(best, {j, score}, top_k);
    }
    return best;
  };
  auto merge = [&](std::vector<SearchResult> best,
                   std::vector<SearchResult> chunk) {
    for (const SearchResult& r : chunk) Offer(best, r, top_k);
    return best;
  };
  std::vector<SearchResult> best =
      par::ParallelReduce(0, norms.size(), grain,
                          std::vector<SearchResult>{}, scan, merge);
  std::sort(best.begin(), best.end(), Better);
  return best;
}

std::vector<SearchResult> RankScores(const std::vector<double>& scores,
                                     std::size_t top_k) {
  std::vector<SearchResult> best;
  for (std::size_t j = 0; j < scores.size(); ++j) {
    Offer(best, {j, scores[j]}, top_k);
  }
  std::sort(best.begin(), best.end(), Better);
  return best;
}

}  // namespace lsi::core
