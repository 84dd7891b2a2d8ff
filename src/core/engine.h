#ifndef LSI_CORE_ENGINE_H_
#define LSI_CORE_ENGINE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/lsi_index.h"
#include "text/analyzer.h"
#include "text/corpus.h"
#include "text/term_weighting.h"

namespace lsi::core {

/// One named retrieval hit returned by LsiEngine.
struct EngineHit {
  std::string document_name;
  std::size_t document = 0;
  double score = 0.0;
};

/// One related-term result.
struct RelatedTerm {
  std::string term;
  double score = 0.0;
};

/// Options for building an LsiEngine.
struct LsiEngineOptions {
  std::size_t rank = 100;
  text::WeightingScheme weighting = text::WeightingScheme::kTfIdf;
  SvdSolver solver = SvdSolver::kLanczos;
};

/// The batteries-included retrieval engine: bundles the text pipeline,
/// the weighted term-document matrix, the rank-k LSI index, and the
/// per-term global weights needed to score free-text queries — with
/// one-call persistence. This is the class a downstream application
/// embeds; the lower-level pieces stay available for research use.
class LsiEngine {
 public:
  /// Builds an engine over an analyzed corpus. The rank is clamped to
  /// min(terms, documents).
  static Result<LsiEngine> Build(const text::Corpus& corpus,
                                 const LsiEngineOptions& options = {});

  /// A slice holding only `documents` of this engine (strictly
  /// ascending ids this engine holds): their index rows (see
  /// LsiIndex::Slice) and names, a local-to-engine id map, and its own
  /// copy of the model — vocabulary, global weights, U_k and D_k.
  ///
  /// Every document id a slice accepts or returns is this engine's:
  /// hits, MoreLikeThis and DocumentName translate through the map, and
  /// an id the slice does not hold is NotFound. A slice scores the same
  /// rows with the same fold, so its hits are exactly this engine's hits
  /// restricted to `documents`, in the same order. FoldInDocument,
  /// RemoveDocument and Save fail with FailedPrecondition: a slice can
  /// assign no engine-wide id, cannot rescan the floor reference, and
  /// has no file format for its map.
  Result<LsiEngine> Slice(const std::vector<std::size_t>& documents) const;

  std::size_t NumTerms() const { return index_.NumTerms(); }
  std::size_t NumDocuments() const { return index_.NumDocuments(); }
  std::size_t rank() const { return index_.rank(); }
  text::WeightingScheme weighting() const { return weighting_; }

  /// Analyzes `query_text` with the same pipeline as the corpus, weights
  /// it consistently, and returns the best `top_k` documents by latent
  /// cosine. Unknown terms are ignored; a query with no known terms
  /// returns an empty list.
  Result<std::vector<EngineHit>> Query(std::string_view query_text,
                                       std::size_t top_k = 10) const;

  /// The canonical form Query() actually scores: in-vocabulary term ids
  /// with occurrence counts, sorted by id. Two query strings with equal
  /// AnalyzeQueryCounts always produce identical Query results, which is
  /// what serving-layer caches key on ("Galaxy!" == "galaxy", unknown
  /// terms ignored).
  std::vector<std::pair<std::size_t, std::size_t>> AnalyzeQueryCounts(
      std::string_view query_text) const;

  /// Scores a batch of free-text queries, element i of the result pairing
  /// with queries[i]. Queries are independent, so the batch fans out
  /// across lsi::par threads (LSI_THREADS); each query records the same
  /// metrics and spans as a standalone Query() call, and results are
  /// identical to issuing the queries one at a time. Fails with the
  /// first (lowest-index) query's error if any query fails.
  Result<std::vector<std::vector<EngineHit>>> QueryBatch(
      const std::vector<std::string>& queries, std::size_t top_k = 10) const;

  /// Ranks documents similar to an already-indexed document ("more like
  /// this"). The document itself and tombstoned documents are excluded
  /// from the results; a tombstoned source, or one a slice does not
  /// hold, is NotFound.
  Result<std::vector<EngineHit>> MoreLikeThis(std::size_t document,
                                              std::size_t top_k = 10) const;

  /// Terms whose latent representations (rows of U_k D_k) are most
  /// parallel to `term`'s — the §4 synonymy mechanism as a feature:
  /// distributional synonyms surface even when the words never co-occur.
  /// `term` is analyzed (lowercased/stemmed) before lookup; returns
  /// NotFound if it is absent from the corpus.
  Result<std::vector<RelatedTerm>> RelatedTerms(std::string_view term,
                                                std::size_t top_k = 10) const;

  /// Name of document `index` (as given at corpus build time). NotFound
  /// when a slice does not hold it.
  Result<std::string> DocumentName(std::size_t document) const;

  /// Folds a new document into the latent space without recomputing the
  /// SVD: `text` runs through the same analyze/weight pipeline as the
  /// corpus, and the resulting term vector lands via
  /// LsiIndex::FoldInDocument. Returns the new document's index and its
  /// residual angle (the drift signal — see LsiIndex::FoldInDocument).
  /// Out-of-vocabulary terms are dropped; a document with no known
  /// terms folds to the zero vector (searchable never, representable
  /// exactly).
  struct FoldInResult {
    std::size_t document = 0;
    double residual_angle = 0.0;
  };
  Result<FoldInResult> FoldInDocument(std::string_view name,
                                      std::string_view text);

  /// Tombstones `document` (see LsiIndex::MarkDeleted): it stops
  /// appearing in Query/QueryBatch results. The name is retained so
  /// historical ids keep resolving.
  Status RemoveDocument(std::size_t document);

  /// Persists the engine as one file: vocabulary, global weights,
  /// document names, and weighting scheme, followed by the embedded LSI
  /// factors. Crash-safe: the bytes land via `<path>.tmp` + atomic
  /// rename, so a crash mid-save leaves the previous engine intact.
  Status Save(const std::string& path) const;

  /// Loads an engine written by Save(). Corruption is reported as
  /// InvalidArgument (every section carries a CRC32C trailer).
  static Result<LsiEngine> Load(const std::string& path);

  const LsiIndex& index() const { return index_; }

 private:
  LsiEngine(LsiIndex index, text::WeightingScheme weighting,
            std::vector<std::string> terms, std::vector<double> global_weights,
            std::vector<std::string> document_names);

  // Index rows -> hits carrying engine-wide ids and names.
  Result<std::vector<EngineHit>> ToHits(
      Result<std::vector<SearchResult>> results) const;

  // The index row of engine-wide id `document`: the id itself, or for a
  // slice its place in the id map (NotFound when the slice lacks it).
  Result<std::size_t> RowOf(std::size_t document) const;

  // The weighted term vector of AnalyzeQueryCounts output: local weight
  // of each count times the term's global weight, ids kept in order.
  TermWeights Weigh(
      const std::vector<std::pair<std::size_t, std::size_t>>& counts) const;

  LsiIndex index_;
  text::WeightingScheme weighting_;
  text::Analyzer analyzer_;
  std::vector<std::string> terms_;  // Term id -> string.
  std::unordered_map<std::string, std::size_t> term_ids_;
  std::vector<double> global_weights_;  // Per-term idf/entropy factor.
  std::vector<std::string> document_names_;  // Index row -> name.
  // A slice's index row -> engine-wide id, strictly ascending; empty
  // unless index_.IsSlice().
  std::vector<std::size_t> global_ids_;
};

/// Merges per-source ranked hit lists into one list ranked the way
/// Query() ranks: score descending, ties broken by ascending document
/// id (LsiIndex::ScanTopK's single ordering rule), with the name as a
/// final tiebreak for sources whose id spaces collide. Tombstones never
/// reach a source list: ScanTopK skips them during the scan. When the
/// sources partition one engine's documents — each hit keeping its
/// global id — the merge is bit-identical to querying the unpartitioned
/// engine, which is what lets a shard router promise exact results.
/// `top_k == 0` keeps everything.
std::vector<EngineHit> MergeTopKHits(
    std::vector<std::vector<EngineHit>> sources, std::size_t top_k);

}  // namespace lsi::core

#endif  // LSI_CORE_ENGINE_H_
