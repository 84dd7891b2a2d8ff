#ifndef LSI_SHARD_SHARD_SET_H_
#define LSI_SHARD_SHARD_SET_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "text/corpus.h"

namespace lsi::shard {

/// Options for ShardSet::Build.
struct ShardSetOptions {
  /// Number of shards; each document is owned by exactly one. Must be
  /// >= 1 (shards beyond NumDocuments simply come up empty).
  std::size_t num_shards = 2;
  core::LsiEngineOptions engine;
};

/// A corpus partitioned across N in-process LsiEngine instances.
///
/// Sharding happens in a SHARED latent space: the rank-k factorization
/// is computed once over the full corpus, and shard s is then the
/// LsiEngine::Slice holding only the documents it owns (ShardOf(d) ==
/// s): their latent rows, norms and names plus an ascending id map,
/// next to its own copy of U_k, D_k and the vocabulary. Each shard
/// therefore scores its documents with exactly the same latent vectors,
/// floor reference and global document ids as the unsharded engine, so
/// a merged top-k (core::MergeTopKHits) is bit-identical to querying the
/// single engine. That exactness is what the scatter-gather router's
/// "degraded results are a subset, full results are the real answer"
/// contract rests on; trading it for per-shard SVDs (smaller resident
/// factors, approximate merge — the paper's §5 random-projection
/// argument says quality survives) is the follow-on step.
///
/// Immutable after Build; all methods are const and thread-safe.
class ShardSet {
 public:
  static Result<ShardSet> Build(const text::Corpus& corpus,
                                const ShardSetOptions& options = {});

  std::size_t num_shards() const { return shards_.size(); }
  const core::LsiEngine& shard(std::size_t i) const { return shards_[i]; }

  /// The shard owning `document` (round-robin, so contiguous corpora
  /// spread evenly regardless of input order).
  static std::size_t ShardOf(std::size_t document, std::size_t num_shards) {
    return document % num_shards;
  }

  /// Scatter-gathers one query: every shard scores it, the per-shard
  /// top-k lists merge deterministically. Identical to the unsharded
  /// engine's Query at every LSI_THREADS setting.
  Result<std::vector<core::EngineHit>> Query(std::string_view query_text,
                                             std::size_t top_k = 10) const;

  /// Shard-parallel batch scoring: shards fan out across lsi::par
  /// threads (each shard runs the whole batch; per-shard inner
  /// parallelism serializes under the outer region), then each query's
  /// per-shard lists merge. Element i pairs with queries[i].
  Result<std::vector<std::vector<core::EngineHit>>> QueryBatch(
      const std::vector<std::string>& queries, std::size_t top_k = 10) const;

 private:
  explicit ShardSet(std::vector<core::LsiEngine> shards);

  std::vector<core::LsiEngine> shards_;
};

}  // namespace lsi::shard

#endif  // LSI_SHARD_SHARD_SET_H_
