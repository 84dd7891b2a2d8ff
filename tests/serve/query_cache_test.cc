#include "serve/query_cache.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace lsi::serve {
namespace {

std::vector<core::EngineHit> Hits(const std::string& tag, std::size_t n = 3) {
  std::vector<core::EngineHit> hits;
  for (std::size_t i = 0; i < n; ++i) {
    hits.push_back({tag + std::to_string(i), i, 1.0 / (1.0 + i)});
  }
  return hits;
}

/// Single-shard options so eviction order is fully deterministic.
QueryCacheOptions SingleShard(std::size_t max_bytes) {
  QueryCacheOptions options;
  options.shards = 1;
  options.max_bytes = max_bytes;
  return options;
}

TEST(QueryCacheTest, MissThenHit) {
  QueryCache cache(SingleShard(1 << 20));
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", Hits("doc"));
  auto hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), 3u);
  EXPECT_EQ((*hit)[0].document_name, "doc0");
  EXPECT_DOUBLE_EQ((*hit)[2].score, 1.0 / 3.0);
}

TEST(QueryCacheTest, KeyCanonicalizesAnalyzedTerms) {
  const std::string key = QueryCache::Key({{3, 1}, {17, 2}}, 10);
  EXPECT_EQ(key, "3:1,17:2,|10");
  // Different top_k -> different key.
  EXPECT_NE(key, QueryCache::Key({{3, 1}, {17, 2}}, 5));
  // Empty analyzed query still forms a valid key.
  EXPECT_EQ(QueryCache::Key({}, 10), "|10");
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsedFirst) {
  const std::size_t entry = CacheEntryBytes("k1", Hits("x"));
  // Budget fits exactly three entries (keys are the same length).
  QueryCache cache(SingleShard(3 * entry));
  cache.Put("k1", Hits("x"));
  cache.Put("k2", Hits("x"));
  cache.Put("k3", Hits("x"));
  EXPECT_EQ(cache.entries(), 3u);
  // Touch k1 so k2 becomes the LRU entry.
  EXPECT_TRUE(cache.Get("k1").has_value());
  cache.Put("k4", Hits("x"));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_FALSE(cache.Get("k2").has_value());  // Evicted.
  EXPECT_TRUE(cache.Get("k1").has_value());
  EXPECT_TRUE(cache.Get("k3").has_value());
  EXPECT_TRUE(cache.Get("k4").has_value());
}

TEST(QueryCacheTest, ByteBudgetIsEnforced) {
  const std::size_t entry = CacheEntryBytes("key00", Hits("doc"));
  QueryCache cache(SingleShard(4 * entry));
  for (int i = 0; i < 32; ++i) {
    cache.Put("key" + std::to_string(10 + i), Hits("doc"));
  }
  EXPECT_LE(cache.bytes(), 4 * entry);
  EXPECT_GE(cache.entries(), 1u);
  EXPECT_LE(cache.entries(), 4u);
}

TEST(QueryCacheTest, OversizedEntryIsNotCached) {
  QueryCache cache(SingleShard(64));  // Smaller than any real entry.
  cache.Put("k", Hits("a-rather-long-document-name", 100));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.Get("k").has_value());
}

TEST(QueryCacheTest, ZeroBudgetDisablesCaching) {
  QueryCache cache(SingleShard(0));
  cache.Put("k", Hits("x"));
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(QueryCacheTest, ReplacingAnEntryUpdatesAccounting) {
  QueryCache cache(SingleShard(1 << 20));
  cache.Put("k", Hits("short", 1));
  const std::size_t small = cache.bytes();
  cache.Put("k", Hits("a-much-longer-name", 10));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), small);
  cache.Put("k", Hits("short", 1));
  EXPECT_EQ(cache.bytes(), small);
}

TEST(QueryCacheTest, PartialResultsAreNeverAdmitted) {
  QueryCache cache(SingleShard(1 << 20));
  obs::Counter& rejected =
      obs::MetricsRegistry::Global().GetCounter("lsi.serve.cache.partial_rejected");
  const std::uint64_t before = rejected.value();

  cache.Put("k", Hits("degraded"), /*is_partial=*/true);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(cache.Get("k").has_value());
  EXPECT_EQ(rejected.value(), before + 1);

  // The same key admits a full result afterwards; a later partial Put
  // must not evict or shadow it.
  cache.Put("k", Hits("full"));
  cache.Put("k", Hits("degraded"), /*is_partial=*/true);
  auto hit = cache.Get("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].document_name, "full0");
  EXPECT_EQ(rejected.value(), before + 2);
}

TEST(QueryCacheTest, ShardedCacheStillFindsItsKeys) {
  QueryCacheOptions options;
  options.shards = 8;
  options.max_bytes = 1 << 20;
  QueryCache cache(options);
  for (int i = 0; i < 100; ++i) {
    cache.Put("key" + std::to_string(i), Hits("doc" + std::to_string(i), 2));
  }
  for (int i = 0; i < 100; ++i) {
    auto hit = cache.Get("key" + std::to_string(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ((*hit)[0].document_name, "doc" + std::to_string(i) + "0");
  }
}

}  // namespace
}  // namespace lsi::serve
