#include "shard/shard_set.h"

#include <utility>

#include "obs/metrics.h"
#include "par/parallel_for.h"

namespace lsi::shard {

ShardSet::ShardSet(std::vector<core::LsiEngine> shards)
    : shards_(std::move(shards)) {}

Result<ShardSet> ShardSet::Build(const text::Corpus& corpus,
                                 const ShardSetOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("shard: num_shards must be >= 1");
  }
  // One factorization for everyone: the per-shard engines are slices of
  // the same latent space, not independent models (see the class
  // comment for why).
  LSI_ASSIGN_OR_RETURN(core::LsiEngine global,
                       core::LsiEngine::Build(corpus, options.engine));
  std::vector<std::vector<std::size_t>> owned(options.num_shards);
  for (std::size_t d = 0; d < global.NumDocuments(); ++d) {
    owned[ShardOf(d, options.num_shards)].push_back(d);
  }
  std::vector<core::LsiEngine> shards;
  shards.reserve(options.num_shards);
  for (const std::vector<std::size_t>& documents : owned) {
    LSI_ASSIGN_OR_RETURN(core::LsiEngine slice, global.Slice(documents));
    shards.push_back(std::move(slice));
  }
  obs::MetricsRegistry::Global()
      .GetGauge("lsi.shard.set.shards")
      .Set(static_cast<double>(options.num_shards));
  return ShardSet(std::move(shards));
}

Result<std::vector<core::EngineHit>> ShardSet::Query(
    std::string_view query_text, std::size_t top_k) const {
  std::vector<std::string> one(1, std::string(query_text));
  LSI_ASSIGN_OR_RETURN(auto batched, QueryBatch(one, top_k));
  return std::move(batched[0]);
}

Result<std::vector<std::vector<core::EngineHit>>> ShardSet::QueryBatch(
    const std::vector<std::string>& queries, std::size_t top_k) const {
  const std::size_t n = shards_.size();
  // per_shard[s] holds shard s's ranked lists for every query; the
  // slots are disjoint so the shard fan-out needs no lock.
  std::vector<Result<std::vector<std::vector<core::EngineHit>>>> per_shard(
      n, Result<std::vector<std::vector<core::EngineHit>>>(
             std::vector<std::vector<core::EngineHit>>{}));
  par::ParallelFor(0, n, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      per_shard[s] = shards_[s].QueryBatch(queries, top_k);
    }
  });
  for (std::size_t s = 0; s < n; ++s) {
    if (!per_shard[s].ok()) return per_shard[s].status();
  }
  std::vector<std::vector<core::EngineHit>> merged;
  merged.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::vector<core::EngineHit>> sources;
    sources.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      sources.push_back(std::move(per_shard[s].value()[q]));
    }
    merged.push_back(core::MergeTopKHits(std::move(sources), top_k));
  }
  return merged;
}

}  // namespace lsi::shard
