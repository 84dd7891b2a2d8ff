#ifndef LSI_SERVE_QUERY_CACHE_H_
#define LSI_SERVE_QUERY_CACHE_H_

#include <cstddef>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/engine.h"

namespace lsi::serve {

/// Options for the router's result cache.
struct QueryCacheOptions {
  /// Independent LRU shards; lookups hash the key to a shard so
  /// concurrent workers rarely contend on one mutex. Clamped to >= 1.
  std::size_t shards = 8;
  /// Total byte budget across shards (approximate accounting: key bytes +
  /// hit payload + fixed per-entry overhead). 0 disables the cache.
  std::size_t max_bytes = 64ull * 1024 * 1024;
};

/// Sharded LRU cache for query results, used by shard::Router for its
/// full single-query answers. Keys are caller-defined strings; Key()
/// builds one from an *analyzed* query (in-vocabulary term ids + counts)
/// and top_k, so "Galaxy!" and "galaxy" would share an entry.
/// Thread-safe; every operation touches exactly one shard.
///
/// Emits lsi.serve.cache.{hits,misses,evictions} counters and
/// lsi.serve.cache.{entries,bytes} gauges.
class QueryCache {
 public:
  explicit QueryCache(QueryCacheOptions options = {});

  /// Canonical cache key for an analyzed query: "id:count,..." + "|k".
  /// `term_counts` must be sorted by term id (LsiEngine::AnalyzeQueryCounts
  /// returns it sorted).
  static std::string Key(
      const std::vector<std::pair<std::size_t, std::size_t>>& term_counts,
      std::size_t top_k);

  /// Returns a copy of the cached hits, refreshing recency; nullopt on
  /// miss.
  std::optional<std::vector<core::EngineHit>> Get(const std::string& key);

  /// Inserts or refreshes `key`. Entries larger than a shard's whole
  /// budget are not cached. Evicts least-recently-used entries in the
  /// target shard until its budget holds. `is_partial` marks a degraded
  /// (subset-of-shards) result: those are refused admission outright —
  /// counted as lsi.serve.cache.partial_rejected — so a brownout never
  /// poisons the cache with partial answers that would outlive the
  /// outage.
  void Put(const std::string& key, const std::vector<core::EngineHit>& hits,
           bool is_partial = false);

  std::size_t entries() const;
  std::size_t bytes() const;

 private:
  struct Entry {
    std::string key;
    std::vector<core::EngineHit> hits;
    std::size_t bytes = 0;
  };

  struct Shard {
    mutable Mutex mutex{
        LSI_LOCK_RANK("serve.cache.shard", lock_rank::kServeCacheShard)};
    /// Front = most recently used.
    std::list<Entry> lru LSI_GUARDED_BY(mutex);
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        LSI_GUARDED_BY(mutex);
    std::size_t bytes LSI_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(const std::string& key);
  void EraseLocked(Shard& shard, std::list<Entry>::iterator it)
      LSI_REQUIRES(shard.mutex);

  QueryCacheOptions options_;
  std::size_t shard_budget_ = 0;
  std::vector<Shard> shards_;

  // Registry handles resolved once in the constructor; increments are
  // lock-free afterwards.
  struct Metrics;
  Metrics* metrics_;
};

/// Approximate resident size of one cached result list, used for budget
/// accounting (also exposed for tests).
std::size_t CacheEntryBytes(const std::string& key,
                            const std::vector<core::EngineHit>& hits);

}  // namespace lsi::serve

#endif  // LSI_SERVE_QUERY_CACHE_H_
