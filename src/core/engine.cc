#include "core/engine.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

#include "common/fault.h"
#include "linalg/matrix_io.h"
#include "obs/metrics.h"
#include "par/parallel_for.h"

namespace lsi::core {
namespace {

using linalg::io_internal::AtomicFile;
using linalg::io_internal::FileHandle;
using linalg::io_internal::Reader;
using linalg::io_internal::Writer;

constexpr char kEngineMagic[4] = {'L', 'S', 'I', 'E'};
// Version 2: single-file layout (the index is embedded after the
// metadata section instead of living in a sibling "<path>.index" file,
// so one atomic rename publishes both), per-section CRC32C trailers.
constexpr std::uint64_t kFormatVersion = 2;

}  // namespace

LsiEngine::LsiEngine(LsiIndex index, text::WeightingScheme weighting,
                     std::vector<std::string> terms,
                     std::vector<double> global_weights,
                     std::vector<std::string> document_names)
    : index_(std::move(index)),
      weighting_(weighting),
      terms_(std::move(terms)),
      global_weights_(std::move(global_weights)),
      document_names_(std::move(document_names)) {
  for (std::size_t t = 0; t < terms_.size(); ++t) {
    term_ids_.emplace(terms_[t], t);
  }
}

Result<LsiEngine> LsiEngine::Build(const text::Corpus& corpus,
                                   const LsiEngineOptions& options) {
  if (corpus.NumDocuments() == 0 || corpus.NumTerms() == 0) {
    return Status::InvalidArgument("LsiEngine: empty corpus");
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& builds = registry.GetCounter("lsi.engine.builds");
  static obs::Histogram& build_ms =
      registry.GetHistogram("lsi.engine.build_ms");
  static obs::Histogram& weight_ms =
      registry.GetHistogram("lsi.engine.build.weight_ms");
  builds.Increment();
  obs::ScopedTimer timed(build_ms);

  linalg::SparseMatrix matrix(0, 0);
  {
    obs::ScopedTimer timed_weight(weight_ms);
    text::TermDocumentMatrixOptions matrix_options;
    matrix_options.scheme = options.weighting;
    LSI_ASSIGN_OR_RETURN(matrix,
                         text::BuildTermDocumentMatrix(corpus, matrix_options));
  }

  // LsiIndex::Build records the factor and project stages.
  LsiOptions lsi_options;
  lsi_options.rank = std::max<std::size_t>(
      1, std::min(options.rank, std::min(matrix.rows(), matrix.cols())));
  lsi_options.solver = options.solver;
  LSI_ASSIGN_OR_RETURN(LsiIndex index, LsiIndex::Build(matrix, lsi_options));

  std::vector<std::string> document_names;
  document_names.reserve(corpus.NumDocuments());
  for (std::size_t d = 0; d < corpus.NumDocuments(); ++d) {
    document_names.push_back(corpus.document(d).name());
  }
  return LsiEngine(std::move(index), options.weighting,
                   corpus.vocabulary().terms(),
                   text::ComputeGlobalWeights(corpus, options.weighting),
                   std::move(document_names));
}

Result<LsiEngine> LsiEngine::Slice(
    const std::vector<std::size_t>& documents) const {
  std::vector<std::size_t> rows;
  rows.reserve(documents.size());
  for (std::size_t document : documents) {
    LSI_ASSIGN_OR_RETURN(std::size_t row, RowOf(document));
    rows.push_back(row);
  }
  LSI_ASSIGN_OR_RETURN(LsiIndex index, index_.Slice(rows));
  // Rows ascend, so the ones that have names form a prefix.
  std::vector<std::string> names;
  for (std::size_t row : rows) {
    if (row >= document_names_.size()) break;
    names.push_back(document_names_[row]);
  }
  LsiEngine slice(std::move(index), weighting_, terms_, global_weights_,
                  std::move(names));
  slice.global_ids_ = documents;
  return slice;
}

Result<std::vector<EngineHit>> LsiEngine::ToHits(
    Result<std::vector<SearchResult>> results) const {
  if (!results.ok()) return results.status();
  std::vector<EngineHit> hits;
  hits.reserve(results->size());
  for (const SearchResult& r : results.value()) {
    const std::size_t document =
        index_.IsSlice() ? global_ids_[r.document] : r.document;
    std::string name = r.document < document_names_.size()
                           ? document_names_[r.document]
                           : "folded" + std::to_string(document);
    hits.push_back({std::move(name), document, r.score});
  }
  return hits;
}

Result<std::size_t> LsiEngine::RowOf(std::size_t document) const {
  if (!index_.IsSlice()) return document;
  const auto it =
      std::lower_bound(global_ids_.begin(), global_ids_.end(), document);
  if (it == global_ids_.end() || *it != document) {
    return Status::NotFound("document " + std::to_string(document) +
                            " is not in this slice");
  }
  return static_cast<std::size_t>(it - global_ids_.begin());
}

Result<std::vector<EngineHit>> LsiEngine::Query(std::string_view query_text,
                                                std::size_t top_k) const {
  // Resolved once: registry references are stable for its lifetime.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& queries = registry.GetCounter("lsi.engine.queries");
  static obs::Histogram& latency_ms =
      registry.GetHistogram("lsi.engine.query.latency_ms");
  static obs::Histogram& analyze_ms =
      registry.GetHistogram("lsi.engine.query.analyze_ms");
  static obs::Histogram& weight_ms =
      registry.GetHistogram("lsi.engine.query.weight_ms");
  queries.Increment();
  obs::ScopedTimer timed(latency_ms);

  std::vector<std::pair<std::size_t, std::size_t>> counts;
  {
    obs::ScopedTimer timed_analyze(analyze_ms);
    counts = AnalyzeQueryCounts(query_text);
  }
  if (counts.empty()) return std::vector<EngineHit>{};

  TermWeights query;
  {
    obs::ScopedTimer timed_weight(weight_ms);
    query = Weigh(counts);
  }
  // LsiIndex::Search records the fold-in and scan as lsi.index.search_ms.
  return ToHits(index_.Search(query, top_k));
}

TermWeights LsiEngine::Weigh(
    const std::vector<std::pair<std::size_t, std::size_t>>& counts) const {
  TermWeights weights;
  weights.reserve(counts.size());
  for (const auto& [term, count] : counts) {
    weights.emplace_back(term, text::LocalTermWeight(weighting_, count) *
                                   global_weights_[term]);
  }
  return weights;
}

std::vector<std::pair<std::size_t, std::size_t>> LsiEngine::AnalyzeQueryCounts(
    std::string_view query_text) const {
  std::map<std::size_t, std::size_t> counts;
  for (const std::string& token : analyzer_.Analyze(query_text)) {
    auto it = term_ids_.find(token);
    if (it != term_ids_.end()) counts[it->second]++;
  }
  return {counts.begin(), counts.end()};  // std::map iterates sorted by id.
}

Result<std::vector<std::vector<EngineHit>>> LsiEngine::QueryBatch(
    const std::vector<std::string>& queries, std::size_t top_k) const {
  static obs::Counter& batches =
      obs::MetricsRegistry::Global().GetCounter("lsi.engine.batch_queries");
  static obs::Counter& batch_items =
      obs::MetricsRegistry::Global().GetCounter(
          "lsi.engine.batch_query_items");
  batches.Increment();
  batch_items.Increment(queries.size());
  std::vector<Result<std::vector<EngineHit>>> per_query(
      queries.size(), std::vector<EngineHit>{});
  par::ParallelFor(0, queries.size(), 1,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       per_query[i] = Query(queries[i], top_k);
                     }
                   });
  std::vector<std::vector<EngineHit>> hits;
  hits.reserve(queries.size());
  for (Result<std::vector<EngineHit>>& result : per_query) {
    if (!result.ok()) return result.status();
    hits.push_back(std::move(result).value());
  }
  return hits;
}

Result<std::vector<EngineHit>> LsiEngine::MoreLikeThis(
    std::size_t document, std::size_t top_k) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& calls =
      registry.GetCounter("lsi.engine.more_like_this_calls");
  static obs::Histogram& more_like_this_ms =
      registry.GetHistogram("lsi.engine.more_like_this_ms");
  calls.Increment();
  obs::ScopedTimer timed(more_like_this_ms);
  LSI_ASSIGN_OR_RETURN(std::size_t row, RowOf(document));
  if (row >= NumDocuments()) {
    return Status::OutOfRange("MoreLikeThis: document index out of range");
  }
  if (index_.IsDeleted(row)) {
    return Status::NotFound("MoreLikeThis: document has been deleted");
  }
  // A source that folds to numerically nothing scores everything 0.
  const double* source = index_.IsFloorRow(LsiIndex::Rows::kDocuments, row)
                             ? nullptr
                             : index_.document_vectors().RowPtr(row);
  return ToHits(
      index_.ScanTopK(LsiIndex::Rows::kDocuments, source, top_k, row));
}

Result<std::vector<RelatedTerm>> LsiEngine::RelatedTerms(
    std::string_view term, std::size_t top_k) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& calls =
      registry.GetCounter("lsi.engine.related_terms_calls");
  static obs::Histogram& related_terms_ms =
      registry.GetHistogram("lsi.engine.related_terms_ms");
  calls.Increment();
  obs::ScopedTimer timed(related_terms_ms);
  std::vector<std::string> analyzed = analyzer_.Analyze(term);
  if (analyzed.size() != 1) {
    return Status::InvalidArgument(
        "RelatedTerms expects a single content word");
  }
  auto it = term_ids_.find(analyzed[0]);
  if (it == term_ids_.end()) {
    return Status::NotFound("term not in the corpus: " + analyzed[0]);
  }
  const std::size_t anchor = it->second;
  std::vector<RelatedTerm> related;
  // A term that folds to numerically nothing has no direction to compare.
  if (index_.IsFloorRow(LsiIndex::Rows::kTerms, anchor)) return related;
  const linalg::DenseVector anchor_vector = index_.TermVector(anchor);
  for (const SearchResult& r : index_.ScanTopK(
           LsiIndex::Rows::kTerms, anchor_vector.data(), top_k, anchor)) {
    related.push_back({terms_[r.document], r.score});
  }
  return related;
}

Result<LsiEngine::FoldInResult> LsiEngine::FoldInDocument(
    std::string_view name, std::string_view text) {
  if (index_.IsSlice()) {
    return Status::FailedPrecondition(
        "FoldInDocument: a slice cannot assign an engine-wide id");
  }
  FoldInResult result;
  LSI_ASSIGN_OR_RETURN(
      result.document,
      index_.FoldInDocument(Weigh(AnalyzeQueryCounts(text)),
                            &result.residual_angle));
  document_names_.emplace_back(name);
  return result;
}

Status LsiEngine::RemoveDocument(std::size_t document) {
  // On a slice MarkDeleted fails before it looks at the id.
  return index_.MarkDeleted(document);
}

Result<std::string> LsiEngine::DocumentName(std::size_t document) const {
  LSI_ASSIGN_OR_RETURN(std::size_t row, RowOf(document));
  if (row >= document_names_.size()) {
    return Status::OutOfRange("DocumentName: index out of range");
  }
  return document_names_[row];
}

Status LsiEngine::Save(const std::string& path) const {
  if (LSI_FAULT_POINT("core.engine.save")) {
    return fault::InjectedFailure("core.engine.save");
  }
  AtomicFile file(path);
  if (!file.ok()) {
    return Status::InvalidArgument("cannot open for write: " + path + ".tmp");
  }
  Writer& writer = file.writer();
  LSI_RETURN_IF_ERROR(writer.WriteBytes(kEngineMagic, 4));
  LSI_RETURN_IF_ERROR(writer.WriteU64(kFormatVersion));
  writer.BeginSection();
  LSI_RETURN_IF_ERROR(
      writer.WriteU64(static_cast<std::uint64_t>(weighting_)));
  LSI_RETURN_IF_ERROR(writer.WriteU64(terms_.size()));
  for (const std::string& term : terms_) {
    LSI_RETURN_IF_ERROR(writer.WriteString(term));
  }
  LSI_RETURN_IF_ERROR(
      writer.WriteDoubles(global_weights_.data(), global_weights_.size()));
  LSI_RETURN_IF_ERROR(writer.WriteU64(document_names_.size()));
  for (const std::string& name : document_names_) {
    LSI_RETURN_IF_ERROR(writer.WriteString(name));
  }
  LSI_RETURN_IF_ERROR(writer.EndSection());
  LSI_RETURN_IF_ERROR(index_.WriteTo(writer));
  return file.Commit();
}

Result<LsiEngine> LsiEngine::Load(const std::string& path) {
  if (LSI_FAULT_POINT("core.engine.load")) {
    return fault::InjectedFailure("core.engine.load");
  }
  FileHandle file(path, "rb");
  if (!file.ok()) return Status::NotFound("cannot open for read: " + path);
  Reader reader(file.get());
  char magic[4];
  LSI_RETURN_IF_ERROR(reader.ReadBytes(magic, 4));
  if (std::memcmp(magic, kEngineMagic, 4) != 0) {
    return Status::InvalidArgument("not an LsiEngine file: " + path);
  }
  LSI_ASSIGN_OR_RETURN(std::uint64_t version, reader.ReadU64());
  if (version == 1) {
    return Status::InvalidArgument(
        "LsiEngine format version 1 predates the single-file checksummed "
        "layout; rebuild and re-save with this build");
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported LsiEngine format version");
  }
  reader.BeginSection();
  LSI_ASSIGN_OR_RETURN(std::uint64_t weighting_raw, reader.ReadU64());
  if (weighting_raw >
      static_cast<std::uint64_t>(text::WeightingScheme::kLogEntropy)) {
    return Status::InvalidArgument("unknown weighting scheme in file");
  }
  LSI_ASSIGN_OR_RETURN(std::uint64_t num_terms, reader.ReadU64());
  std::uint64_t weight_bytes = 0;
  if (__builtin_mul_overflow(num_terms, sizeof(double), &weight_bytes) ||
      weight_bytes > reader.remaining()) {
    return Status::InvalidArgument("term count implausible");
  }
  std::vector<std::string> terms;
  terms.reserve(num_terms);
  for (std::uint64_t t = 0; t < num_terms; ++t) {
    LSI_ASSIGN_OR_RETURN(std::string term, reader.ReadString());
    terms.push_back(std::move(term));
  }
  std::vector<double> global_weights(num_terms);
  LSI_RETURN_IF_ERROR(reader.ReadDoubles(global_weights.data(), num_terms));
  LSI_ASSIGN_OR_RETURN(std::uint64_t num_docs, reader.ReadU64());
  // Each document contributes at least a length prefix to this section.
  if (num_docs > reader.remaining() / sizeof(std::uint64_t)) {
    return Status::InvalidArgument("document count implausible");
  }
  std::vector<std::string> document_names;
  document_names.reserve(num_docs);
  for (std::uint64_t d = 0; d < num_docs; ++d) {
    LSI_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
    document_names.push_back(std::move(name));
  }
  LSI_RETURN_IF_ERROR(reader.EndSection());

  LSI_ASSIGN_OR_RETURN(LsiIndex index, LsiIndex::ReadFrom(reader));
  if (index.NumTerms() != terms.size()) {
    return Status::InvalidArgument(
        "LsiEngine metadata does not match its embedded index");
  }
  return LsiEngine(std::move(index),
                   static_cast<text::WeightingScheme>(weighting_raw),
                   std::move(terms), std::move(global_weights),
                   std::move(document_names));
}

std::vector<EngineHit> MergeTopKHits(
    std::vector<std::vector<EngineHit>> sources, std::size_t top_k) {
  std::vector<EngineHit> merged;
  std::size_t total = 0;
  for (const auto& source : sources) total += source.size();
  merged.reserve(total);
  for (auto& source : sources) {
    for (EngineHit& hit : source) merged.push_back(std::move(hit));
  }
  std::sort(merged.begin(), merged.end(),
            [](const EngineHit& a, const EngineHit& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.document != b.document) return a.document < b.document;
              return a.document_name < b.document_name;
            });
  if (top_k != 0 && merged.size() > top_k) merged.resize(top_k);
  return merged;
}

}  // namespace lsi::core
