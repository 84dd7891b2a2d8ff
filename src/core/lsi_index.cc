#include "core/lsi_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/check.h"
#include "common/timer.h"
#include "core/kmeans.h"
#include "linalg/operators.h"
#include "linalg/simd/simd.h"
#include "obs/metrics.h"
#include "par/parallel_for.h"

namespace lsi::core {
namespace {

/// The factor stage of a build; each solver path records its time here.
obs::Histogram& FactorMs() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "lsi.engine.build.factor_ms");
  return histogram;
}

Result<linalg::SvdResult> ComputeTruncatedSvd(const linalg::LinearOperator& a,
                                              const LsiOptions& options) {
  obs::ScopedTimer timed(FactorMs());
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
  obs::ScopedTimer timed(FactorMs());
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

// Document clustering for the bounded scan (DESIGN.md, "Latent-cosine
// ranking"). Every input is fixed, so the same rows cluster alike at
// any LSI_THREADS.
constexpr std::size_t kClusters = 64;
constexpr std::size_t kClusterSample = 2000;
constexpr std::size_t kClusterIterations = 20;
constexpr std::uint64_t kClusterSeed = 1998;
constexpr std::size_t kClusterGrain = 1024;

// Rounding pads of the bound. A computed cosine of two k-vectors is off
// from the exact one by about 2 k u (u = 2^-53), below kCosinePad for
// any rank up to 10^5. acos turns a cosine error d into an angle error
// of at most sqrt(2 d) < 1.5e-5 rad; kAnglePad covers the probe's angle
// and the member's angle together.
constexpr double kCosinePad = 1e-10;
constexpr double kAnglePad = 4e-5;

// The angle of a member with cosine `cos` to its centroid. A NaN (a row
// too small to have a direction) counts as the farthest angle, pi.
double MemberAngle(double cos) {
  if (cos >= 1.0) return 0.0;
  return cos >= -1.0 ? std::acos(cos) : std::numbers::pi;
}

// The highest score a member of a cluster of angular radius `radius`
// can reach against a probe whose cosine to the centroid is `probe_cos`:
// cos(max(0, theta - radius)), padded for rounding and clamped at 0. A
// NaN cosine counts as angle 0, which bounds nothing out.
double UpperBound(double probe_cos, double radius) {
  const double theta =
      probe_cos < 1.0 ? std::acos(std::max(-1.0, probe_cos)) : 0.0;
  const double gap = theta - radius - kAnglePad;
  if (gap <= 0.0) return 1.0 + kCosinePad;
  return std::max(0.0, std::cos(gap) + kCosinePad);
}

// Rows offered to a ranking, bumped once per ScanTopK.
obs::Counter& RowsScoredCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("lsi.index.rows_scored");
  return counter;
}

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

LsiIndex::LsiIndex(linalg::SvdResult svd)
    : u_(std::move(svd.u)),
      singular_values_(std::move(svd.singular_values)),
      document_vectors_(std::move(svd.v)),
      built_documents_(document_vectors_.rows()) {
  {
    static obs::Histogram& project_ms =
        obs::MetricsRegistry::Global().GetHistogram(
            "lsi.engine.build.project_ms");
    obs::ScopedTimer timed(project_ms);
    // Document vectors: V_k D_k (row j = sigma-weighted coordinates of
    // document j in the latent space), scaled in place.
    const std::size_t k = rank();
    for (std::size_t j = 0; j < built_documents_; ++j) {
      double* row = document_vectors_.RowPtr(j);
      for (std::size_t i = 0; i < k; ++i) row[i] *= singular_values_[i];
    }
    RecomputeNorms();
  }
  Cluster();
}

LsiIndex::LsiIndex(linalg::SvdResult svd,
                   linalg::DenseMatrix document_vectors)
    : u_(std::move(svd.u)),
      singular_values_(std::move(svd.singular_values)),
      document_vectors_(std::move(document_vectors)),
      built_documents_(svd.v.rows()) {
  RecomputeNorms();
  Cluster();
}

LsiIndex::LsiIndex(const LsiIndex& other)
    : u_(other.u_),
      singular_values_(other.singular_values_),
      document_vectors_(other.document_vectors_.CopyWithSpareRow()),
      built_documents_(other.built_documents_),
      document_norms_(WithSpareSlot(other.document_norms_)),
      max_document_norm_(other.max_document_norm_),
      term_norms_(other.term_norms_),
      max_term_norm_(other.max_term_norm_),
      deleted_(WithSpareSlot(other.deleted_)),
      num_deleted_(other.num_deleted_),
      centroids_(other.centroids_),
      radii_(other.radii_),
      members_(other.members_),
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
  slice.u_ = u_;
  slice.singular_values_ = singular_values_;
  // Ascending ids put the built documents before the folded-in ones.
  slice.built_documents_ = static_cast<std::size_t>(
      std::lower_bound(rows.begin(), rows.end(), built_documents_) -
      rows.begin());
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
  // A radius bounds every member, so it bounds every subset of them:
  // the slice keeps the clusters and drops the rows it does not hold.
  slice.centroids_ = centroids_;
  slice.radii_ = radii_;
  slice.members_.resize(members_.size());
  std::vector<std::size_t> position(NumDocuments(), kNoRow);
  for (std::size_t i = 0; i < rows.size(); ++i) position[rows[i]] = i;
  for (std::size_t c = 0; c < members_.size(); ++c) {
    for (std::size_t j : members_[c]) {
      if (position[j] != kNoRow) slice.members_[c].push_back(position[j]);
    }
  }
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

void LsiIndex::Cluster() {
  const Timer timer;
  const std::size_t m = NumDocuments();
  const std::size_t k = rank();
  centroids_ = linalg::DenseMatrix();
  radii_.clear();
  members_.clear();

  // k-means on the unit directions of every stride-th row; floor rows
  // have no reliable direction.
  const std::size_t stride = std::max<std::size_t>(
      1, (m + kClusterSample - 1) / kClusterSample);
  std::vector<std::size_t> sample;
  for (std::size_t j = 0; j < m; j += stride) {
    if (!IsFloorRow(Rows::kDocuments, j)) sample.push_back(j);
  }
  if (!sample.empty()) {
    linalg::DenseMatrix points(sample.size(), k);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const double* row = document_vectors_.RowPtr(sample[i]);
      const double inv = 1.0 / document_norms_[sample[i]];
      for (std::size_t d = 0; d < k; ++d) points(i, d) = row[d] * inv;
    }
    KMeansOptions options;
    options.max_iterations = kClusterIterations;
    options.seed = kClusterSeed;
    options.restarts = 1;
    const Result<KMeansResult> kmeans =
        KMeans(points, std::min(kClusters, sample.size()), options);
    LSI_CHECK(kmeans.ok());
    // Unit centroids; a mean that cancels to zero has no direction and
    // is dropped.
    std::vector<linalg::DenseVector> units;
    for (std::size_t c = 0; c < kmeans->centroids.rows(); ++c) {
      linalg::DenseVector centroid = kmeans->centroids.Row(c);
      const double norm = centroid.Norm();
      if (norm == 0.0) continue;
      centroid.Scale(1.0 / norm);
      units.push_back(std::move(centroid));
    }
    centroids_ = linalg::DenseMatrix(units.size(), k);
    for (std::size_t c = 0; c < units.size(); ++c) {
      centroids_.SetRow(c, units[c]);
    }
  }

  // Every row joins its nearest centroid; a radius is the exact max of
  // its members' angles, so the chunked reduction is order-free.
  const std::size_t clusters = centroids_.rows();
  if (clusters > 0) {
    std::vector<std::size_t> cluster_of(m);
    radii_ = par::ParallelReduce(
        0, m, kClusterGrain, std::vector<double>(clusters, 0.0),
        [&](std::size_t begin, std::size_t end) {
          std::vector<double> radii(clusters, 0.0);
          for (std::size_t j = begin; j < end; ++j) {
            const auto [c, angle] = NearestCluster(j);
            cluster_of[j] = c;
            radii[c] = std::max(radii[c], angle);
          }
          return radii;
        },
        [](std::vector<double> radii, const std::vector<double>& chunk) {
          for (std::size_t c = 0; c < radii.size(); ++c) {
            radii[c] = std::max(radii[c], chunk[c]);
          }
          return radii;
        });
    members_.resize(clusters);
    for (std::size_t j = 0; j < m; ++j) members_[cluster_of[j]].push_back(j);
  }
  obs::MetricsRegistry::Global()
      .GetGauge("lsi.index.cluster_ms")
      .Set(timer.ElapsedMillis());
}

std::pair<std::size_t, double> LsiIndex::NearestCluster(std::size_t j) const {
  // A zero row scores 0 against every probe, and every bound is at
  // least 0, so it can join any cluster without widening it.
  const double norm = document_norms_[j];
  if (norm == 0.0) return {0, 0.0};
  const double* row = document_vectors_.RowPtr(j);
  std::size_t best = 0;
  double best_dot = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centroids_.rows(); ++c) {
    const double dot = linalg::simd::Dot(row, centroids_.RowPtr(c), rank());
    if (dot > best_dot) {
      best_dot = dot;
      best = c;
    }
  }
  return {best, MemberAngle(best_dot / norm)};
}

void LsiIndex::TermRow(std::size_t t, double* out) const {
  const double* u = u_.RowPtr(t);
  for (std::size_t i = 0; i < rank(); ++i) {
    out[i] = u[i] * singular_values_[i];
  }
}

Result<LsiIndex> LsiIndex::Build(const linalg::SparseMatrix& term_document,
                                 const LsiOptions& options) {
  linalg::SvdResult svd;
  if (options.solver == SvdSolver::kJacobi) {
    LSI_ASSIGN_OR_RETURN(
        svd, ComputeJacobi(term_document.ToDense(), options.rank));
  } else {
    LSI_ASSIGN_OR_RETURN(svd, ComputeTruncatedSvd(
                                  linalg::SparseOperator(term_document),
                                  options));
  }
  return LsiIndex(std::move(svd));
}

Result<LsiIndex> LsiIndex::Build(const linalg::DenseMatrix& term_document,
                                 const LsiOptions& options) {
  linalg::SvdResult svd;
  if (options.solver == SvdSolver::kJacobi) {
    LSI_ASSIGN_OR_RETURN(svd, ComputeJacobi(term_document, options.rank));
  } else {
    LSI_ASSIGN_OR_RETURN(svd, ComputeTruncatedSvd(
                                  linalg::DenseOperator(term_document),
                                  options));
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
    linalg::simd::Axpy(folded.latent.data(), weight, u_.RowPtr(term), k);
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
  const std::size_t j = NumDocuments() - 1;
  if (!members_.empty()) {
    const auto [c, angle] = NearestCluster(j);
    members_[c].push_back(j);
    radii_[c] = std::max(radii_[c], angle);
  }
  return j;
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
  LSI_CHECK(i < rank());
  return singular_values_[i];
}

linalg::DenseMatrix LsiIndex::RightSingularVectors() const {
  const std::size_t k = rank();
  linalg::DenseMatrix v(built_documents_, k, 0.0);
  for (std::size_t j = 0; j < built_documents_; ++j) {
    const double* row = document_vectors_.RowPtr(j);
    for (std::size_t i = 0; i < k; ++i) {
      if (singular_values_[i] != 0.0) v(j, i) = row[i] / singular_values_[i];
    }
  }
  return v;
}

linalg::SvdResult LsiIndex::svd() const {
  return {u_, singular_values_, RightSingularVectors()};
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
  static obs::Histogram& search_ms =
      obs::MetricsRegistry::Global().GetHistogram("lsi.index.search_ms");
  obs::ScopedTimer timed(search_ms);
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
  if (rows == Rows::kDocuments && top_k > 0 && probe != nullptr &&
      !members_.empty()) {
    return BoundedScan(probe, top_k, exclude);
  }
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
  struct Ranked {
    std::vector<SearchResult> best;
    std::size_t scored = 0;
  };
  auto scan = [&](std::size_t begin, std::size_t end) {
    Ranked ranked;
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
      Offer(ranked.best, {j, score}, top_k);
      ++ranked.scored;
    }
    return ranked;
  };
  auto merge = [&](Ranked ranked, Ranked chunk) {
    for (const SearchResult& r : chunk.best) Offer(ranked.best, r, top_k);
    ranked.scored += chunk.scored;
    return ranked;
  };
  Ranked ranked =
      par::ParallelReduce(0, norms.size(), grain, Ranked{}, scan, merge);
  RowsScoredCounter().Increment(ranked.scored);
  std::sort(ranked.best.begin(), ranked.best.end(), Better);
  return std::move(ranked.best);
}

std::vector<SearchResult> LsiIndex::BoundedScan(const double* probe,
                                                std::size_t top_k,
                                                std::size_t exclude) const {
  const std::size_t k = rank();
  const double probe_norm = std::sqrt(linalg::simd::SquaredNorm(probe, k));
  // Clusters by best reachable score, descending; ties by cluster id.
  std::vector<std::pair<double, std::size_t>> order(members_.size());
  for (std::size_t c = 0; c < members_.size(); ++c) {
    const double probe_cos =
        linalg::simd::Dot(probe, centroids_.RowPtr(c), k) / probe_norm;
    order[c] = {UpperBound(probe_cos, radii_[c]), c};
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  std::vector<SearchResult> best;
  best.reserve(std::min(top_k, NumDocuments()));
  std::size_t scored = 0;
  for (const auto& [bound, c] : order) {
    // Strictly below: a member tying the k-th score could still win on
    // a lower id.
    if (best.size() == top_k && bound < best.front().score) break;
    for (std::size_t j : members_[c]) {
      if (j == exclude || deleted_[j] != 0) continue;
      double score = 0.0;
      if (!IsFloorRow(Rows::kDocuments, j)) {
        score = linalg::simd::Dot(probe, document_vectors_.RowPtr(j), k) /
                (probe_norm * document_norms_[j]);
      }
      Offer(best, {j, score}, top_k);
      ++scored;
    }
  }
  RowsScoredCounter().Increment(scored);
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
