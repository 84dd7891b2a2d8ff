#ifndef LSI_CORE_LSI_INDEX_H_
#define LSI_CORE_LSI_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "linalg/dense_matrix.h"
#include "linalg/dense_vector.h"
#include "linalg/gkl_svd.h"
#include "linalg/sparse_matrix.h"
#include "linalg/svd.h"

namespace lsi::linalg::io_internal {
class Reader;
class Writer;
}  // namespace lsi::linalg::io_internal

namespace lsi::core {

/// One ranked retrieval hit.
struct SearchResult {
  std::size_t document = 0;
  double score = 0.0;
};

/// A sparse term-space vector: (term id, weight) pairs with strictly
/// ascending term ids — the shape LsiEngine::AnalyzeQueryCounts yields.
using TermWeights = std::vector<std::pair<std::size_t, double>>;

/// A term-space vector q folded into the latent space.
struct FoldedVector {
  /// q_k = U_k^T q (rank() entries).
  linalg::DenseVector latent;
  /// ||q|| in term space.
  double term_norm = 0.0;

  /// The ScanTopK probe for q: latent's data, or nullptr when q is
  /// (numerically) orthogonal to span(U_k) — ||q_k|| at most 1e-12
  /// ||q||, which includes the zero vector — so every candidate
  /// scores 0.
  const double* Probe() const;
};

/// Which truncated-SVD backend LsiIndex uses.
enum class SvdSolver {
  /// Symmetric Lanczos on the Gram operator with full
  /// reorthogonalization — the default; plays the role of SVDPACK in
  /// the paper's experiments.
  kLanczos,
  /// Randomized subspace iteration (Halko et al.) — faster, slightly
  /// less accurate on clustered spectra.
  kRandomized,
  /// Dense one-sided Jacobi — exact, cubic; for small matrices and tests.
  kJacobi,
  /// Golub-Kahan-Lanczos bidiagonalization — avoids squaring the
  /// condition number; best when small singular values matter.
  kGkl,
};

/// Options for building an LsiIndex.
struct LsiOptions {
  /// The k of rank-k LSI: dimensionality of the latent space. "It should
  /// be small enough to enable fast retrieval and large enough to
  /// adequately capture the structure of the corpus" (§2).
  std::size_t rank = 100;
  SvdSolver solver = SvdSolver::kLanczos;
  linalg::LanczosSvdOptions lanczos;
  linalg::RandomizedSvdOptions randomized;
  linalg::GklSvdOptions gkl;
};

/// A rank-k latent semantic index over a term-document matrix A (§2).
///
/// Computes A_k = U_k D_k V_k^T and represents document j by row j of
/// V_k D_k (equivalently U_k^T a_j). Queries are folded into the same
/// space by q |-> U_k^T q, and retrieval ranks documents by cosine
/// similarity in the latent space.
class LsiIndex {
 public:
  /// Builds the index from a sparse term-document matrix (rows terms,
  /// columns documents). Fails if rank is 0 or exceeds min(n, m), or if
  /// the SVD solver fails.
  static Result<LsiIndex> Build(const linalg::SparseMatrix& term_document,
                                const LsiOptions& options = {});

  /// Builds from a dense matrix (used by the two-step random-projection
  /// pipeline, whose projected matrix is dense).
  static Result<LsiIndex> Build(const linalg::DenseMatrix& term_document,
                                const LsiOptions& options = {});

  /// Reconstructs an index from a caller-supplied truncated SVD — the
  /// deserialization/advanced-use entry point. Fails on inconsistent
  /// factor shapes.
  static Result<LsiIndex> FromSvd(linalg::SvdResult svd);

  /// Copies leave room for one more document row, so a copy's first
  /// FoldInDocument appends in place instead of moving every row (a
  /// copied vector's capacity is its size).
  LsiIndex(const LsiIndex& other);
  LsiIndex& operator=(const LsiIndex& other);
  LsiIndex(LsiIndex&&) noexcept = default;
  LsiIndex& operator=(LsiIndex&&) noexcept = default;

  /// A slice holding only documents `rows` of this index (strictly
  /// ascending ids below NumDocuments()): their V_k and V_k D_k rows,
  /// norms and tombstones, plus its own copy of U_k and D_k. Row i of
  /// the slice is document rows[i] here. Because the ids ascend,
  /// ScanTopK's tie rule (ascending row) keeps this index's order, and
  /// the slice scores every row with the same bytes.
  ///
  /// The slice keeps this index's floor reference (the largest document
  /// norm here, not among `rows`), so IsFloorRow judges each row as this
  /// index does. That reference cannot be rescanned or persisted from
  /// the slice's rows alone, so MarkDeleted, WriteTo and Save (through
  /// WriteTo, leaving no file) on a slice fail with FailedPrecondition. FoldInDocument works: the new row
  /// raises the reference exactly as it would here.
  Result<LsiIndex> Slice(const std::vector<std::size_t>& rows) const;

  /// True for an index made by Slice().
  bool IsSlice() const { return slice_; }

  std::size_t rank() const { return svd_.rank(); }
  std::size_t NumTerms() const { return svd_.u.rows(); }

  /// Number of searchable documents, including any folded-in after the
  /// build (so this can exceed svd().v.rows()).
  std::size_t NumDocuments() const { return document_vectors_.rows(); }

  /// The i-th retained singular value.
  double SingularValue(std::size_t i) const;

  /// Document representations: row j is document j's latent vector
  /// (V_k D_k, so dimensions are k).
  const linalg::DenseMatrix& document_vectors() const {
    return document_vectors_;
  }

  /// Copy of document j's latent vector.
  linalg::DenseVector DocumentVector(std::size_t j) const;

  /// Term representations: row t is term t's latent vector (U_k D_k).
  /// Synonymous terms end up with nearly parallel rows (§4, Synonymy).
  linalg::DenseMatrix TermVectors() const;

  /// Copy of term t's latent vector (row t of TermVectors()).
  linalg::DenseVector TermVector(std::size_t t) const;

  /// The fold-in kernel behind every query and document fold-in:
  /// q_k = U_k^T q = sum_t w_t U_k[t,:] over q's nonzero terms only, so
  /// it costs O(nnz k), not O(n k). Rows are added in ascending term
  /// order (one simd::Axpy over each k-length row), and the term-space
  /// norm sums w_t^2 in the same order. Zero weights are skipped. Fails
  /// when a term id is out of range or the ids are not strictly
  /// ascending.
  Result<FoldedVector> Fold(const TermWeights& terms) const;

  /// Fold over a dense term-space vector (dimension n; fails on
  /// mismatch): gathers its nonzeros in one pass and folds those.
  Result<FoldedVector> Fold(const linalg::DenseVector& vector) const;

  /// Folds a term-space query vector (dimension n) into the latent
  /// space: returns U_k^T q (Fold's latent vector). Fails on dimension
  /// mismatch.
  Result<linalg::DenseVector> FoldInQuery(
      const linalg::DenseVector& query) const;

  /// Ranks all documents by cosine similarity to the folded `query` in
  /// the latent space; returns the best `top_k` (all if 0). A query
  /// orthogonal to span(U_k) scores every document 0.
  Result<std::vector<SearchResult>> Search(const TermWeights& query,
                                           std::size_t top_k = 0) const;

  /// Search over a dense term-space vector (dimension n; fails on
  /// mismatch): gathers its nonzeros and searches those.
  Result<std::vector<SearchResult>> Search(const linalg::DenseVector& query,
                                           std::size_t top_k = 0) const;

  /// The row sets ScanTopK ranks: documents (V_k D_k plus folded-in
  /// rows) or terms (U_k D_k).
  enum class Rows { kDocuments, kTerms };

  /// ScanTopK's `exclude` when no extra row is excluded.
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  /// True when row j of `rows` folds to numerically nothing: its norm is
  /// at most 1e-12 times the largest row norm of the set (for a slice's
  /// documents, of its source's set). Cosines against such a row are
  /// rounding noise.
  bool IsFloorRow(Rows rows, std::size_t j) const;

  /// The one latent-cosine ranking behind Search, SearchWithFeedback and
  /// the engine's MoreLikeThis/RelatedTerms: scores every candidate row
  /// r of `rows` by cos(probe, r) and returns the best `top_k` (all if
  /// 0), ordered by score descending, ties by ascending row id.
  ///
  /// Candidates are all rows except `exclude`, tombstoned documents and
  /// floor terms; excluded rows are skipped before any dot product. A
  /// floor document scores 0 and stays a candidate. `probe` points at
  /// rank() doubles with a nonzero norm, or is nullptr — the caller's
  /// verdict that its probe is degenerate — which scores every
  /// candidate 0. Results are bit-identical at every LSI_THREADS.
  std::vector<SearchResult> ScanTopK(Rows rows, const double* probe,
                                     std::size_t top_k,
                                     std::size_t exclude = kNoRow) const;

  /// Folds a new document into the existing latent space WITHOUT
  /// recomputing the SVD (the classic LSI "folding-in" update): the
  /// document becomes searchable immediately, represented by U_k^T d.
  /// Quality degrades as folded documents shift the corpus statistics;
  /// rebuild periodically. Returns the new document's index.
  ///
  /// When `residual_angle` is non-null it receives the angle (radians)
  /// between the document and its projection onto span(U_k) — 0 when
  /// the document lies entirely inside the latent subspace, pi/2 when
  /// it is orthogonal to it. This is the per-document drift signal the
  /// live layer aggregates to decide when a re-SVD is due (the paper's
  /// §4 perturbation analysis bounds subspace quality in exactly these
  /// terms). A zero document reports 0 (it is represented exactly).
  /// Fails like Fold on a bad term id.
  Result<std::size_t> FoldInDocument(const TermWeights& document,
                                     double* residual_angle = nullptr);

  /// FoldInDocument over a dense term vector (dimension n; fails on
  /// mismatch): gathers its nonzeros and folds those.
  Result<std::size_t> FoldInDocument(const linalg::DenseVector& term_vector,
                                     double* residual_angle = nullptr);

  /// Number of documents folded in since the build.
  std::size_t NumFoldedDocuments() const {
    return NumDocuments() - svd_.v.rows();
  }

  /// Tombstones document `j`: zeroes its latent vector so it can never
  /// score, and excludes it from every ScanTopK ranking. Idempotent.
  /// Deletion marks are an in-memory overlay — Save() writes the zeroed
  /// row but not the flag (rebuild the overlay from the system of
  /// record, e.g. the live layer's WAL, after Load()). Fails with
  /// FailedPrecondition on a slice (see Slice()).
  Status MarkDeleted(std::size_t j);

  /// True when document `j` has been tombstoned by MarkDeleted().
  bool IsDeleted(std::size_t j) const {
    return j < deleted_.size() && deleted_[j] != 0;
  }

  /// Number of tombstoned documents.
  std::size_t NumDeleted() const { return num_deleted_; }

  /// Serializes the index (SVD factors + document vectors, including
  /// folded-in ones) to a binary file. Crash-safe: writes `path + ".tmp"`
  /// and renames it into place, so `path` always holds either the old
  /// index or the complete new one. Fails with FailedPrecondition on a
  /// slice (see Slice()).
  Status Save(const std::string& path) const;

  /// Loads an index written by Save(). Corruption anywhere in the file —
  /// truncation, bit flips, implausible headers — comes back as
  /// InvalidArgument, never a crash (every section carries a CRC32C
  /// trailer).
  static Result<LsiIndex> Load(const std::string& path);

  /// Streams the index body (versioned header, SVD factors, document
  /// vectors) into an open writer / back out of an open reader — the
  /// building blocks Save/Load and the engine's single-file format
  /// share.
  Status WriteTo(linalg::io_internal::Writer& writer) const;
  static Result<LsiIndex> ReadFrom(linalg::io_internal::Reader& reader);

  /// The underlying truncated SVD.
  const linalg::SvdResult& svd() const { return svd_; }

 private:
  LsiIndex() = default;
  explicit LsiIndex(linalg::SvdResult svd);
  LsiIndex(linalg::SvdResult svd, linalg::DenseMatrix document_vectors);

  void RecomputeNorms();
  // Writes row t of U_k D_k into out[0, rank()).
  void TermRow(std::size_t t, double* out) const;

  linalg::SvdResult svd_;
  // m x k = V_k D_k at build time, plus one row per folded-in document.
  linalg::DenseMatrix document_vectors_;
  // Cached row norms of document_vectors_ and of U_k D_k, and their
  // maxima: the cosine denominators and floors of ScanTopK. A slice's
  // max_document_norm_ is its source's.
  std::vector<double> document_norms_;
  double max_document_norm_ = 0.0;
  std::vector<double> term_norms_;
  double max_term_norm_ = 0.0;
  // Tombstone overlay: deleted_[j] != 0 excludes document j from
  // results. Not serialized (see MarkDeleted).
  std::vector<std::uint8_t> deleted_;
  std::size_t num_deleted_ = 0;
  bool slice_ = false;
};

/// Ranks `scores` and returns the top_k indices by descending score,
/// ties by ascending index (all when top_k == 0) — ScanTopK's order.
std::vector<SearchResult> RankScores(const std::vector<double>& scores,
                                     std::size_t top_k);

}  // namespace lsi::core

#endif  // LSI_CORE_LSI_INDEX_H_
