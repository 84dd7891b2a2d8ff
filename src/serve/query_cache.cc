#include "serve/query_cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace lsi::serve {

struct QueryCache::Metrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& partial_rejected;
  obs::Gauge& entries;
  obs::Gauge& bytes;

  static Metrics* Instance() {
    // One set of process-wide metric handles shared by every cache (the
    // registry aggregates anyway; a process runs one router cache).
    static Metrics instance{
        obs::MetricsRegistry::Global().GetCounter("lsi.serve.cache.hits"),
        obs::MetricsRegistry::Global().GetCounter("lsi.serve.cache.misses"),
        obs::MetricsRegistry::Global().GetCounter("lsi.serve.cache.evictions"),
        obs::MetricsRegistry::Global().GetCounter(
            "lsi.serve.cache.partial_rejected"),
        obs::MetricsRegistry::Global().GetGauge("lsi.serve.cache.entries"),
        obs::MetricsRegistry::Global().GetGauge("lsi.serve.cache.bytes"),
    };
    return &instance;
  }
};

QueryCache::QueryCache(QueryCacheOptions options)
    : options_(std::move(options)), metrics_(Metrics::Instance()) {
  if (options_.shards == 0) options_.shards = 1;
  shard_budget_ = options_.max_bytes / options_.shards;
  shards_ = std::vector<Shard>(options_.shards);
}

std::string QueryCache::Key(
    const std::vector<std::pair<std::size_t, std::size_t>>& term_counts,
    std::size_t top_k) {
  std::string key;
  key.reserve(term_counts.size() * 8 + 8);
  for (const auto& [term, count] : term_counts) {
    key.append(std::to_string(term));
    key.push_back(':');
    key.append(std::to_string(count));
    key.push_back(',');
  }
  key.push_back('|');
  key.append(std::to_string(top_k));
  return key;
}

QueryCache::Shard& QueryCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void QueryCache::EraseLocked(Shard& shard, std::list<Entry>::iterator it) {
  shard.bytes -= it->bytes;
  metrics_->bytes.Add(-static_cast<double>(it->bytes));
  metrics_->entries.Add(-1.0);
  shard.index.erase(it->key);
  shard.lru.erase(it);
}

std::optional<std::vector<core::EngineHit>> QueryCache::Get(
    const std::string& key) {
  if (shard_budget_ == 0) {
    metrics_->misses.Increment();
    return std::nullopt;
  }
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    metrics_->misses.Increment();
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  metrics_->hits.Increment();
  return it->second->hits;
}

void QueryCache::Put(const std::string& key,
                     const std::vector<core::EngineHit>& hits,
                     bool is_partial) {
  // Admission check: a degraded (partial) result is an answer over a
  // subset of the shards — serving it from cache later, after the
  // missing shards heal, would silently turn a transient brownout into
  // a persistent wrong answer. Partials are never admitted.
  if (is_partial) {
    metrics_->partial_rejected.Increment();
    return;
  }
  if (shard_budget_ == 0) return;
  const std::size_t entry_bytes = CacheEntryBytes(key, hits);
  if (entry_bytes > shard_budget_) return;  // Would evict the whole shard.
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  if (auto it = shard.index.find(key); it != shard.index.end()) {
    EraseLocked(shard, it->second);  // Replace: drop the stale entry.
  }
  while (shard.bytes + entry_bytes > shard_budget_ && !shard.lru.empty()) {
    EraseLocked(shard, std::prev(shard.lru.end()));
    metrics_->evictions.Increment();
  }
  Entry entry;
  entry.key = key;
  entry.hits = hits;
  entry.bytes = entry_bytes;
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += entry_bytes;
  metrics_->bytes.Add(static_cast<double>(entry_bytes));
  metrics_->entries.Add(1.0);
}

std::size_t QueryCache::entries() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.lru.size();
  }
  return total;
}

std::size_t QueryCache::bytes() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    total += shard.bytes;
  }
  return total;
}

std::size_t CacheEntryBytes(const std::string& key,
                            const std::vector<core::EngineHit>& hits) {
  // Key + per-hit payload + a fixed allowance for list/map node overhead.
  std::size_t bytes = key.size() + 96;
  for (const core::EngineHit& hit : hits) {
    bytes += hit.document_name.size() + sizeof(core::EngineHit);
  }
  return bytes;
}

}  // namespace lsi::serve
