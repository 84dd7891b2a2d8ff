#include "shard/shard_set.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/lsi_index.h"
#include "linalg/dense_matrix.h"
#include "linalg/svd.h"
#include "text/analyzer.h"
#include "text/corpus.h"

namespace lsi::shard {
namespace {

text::Corpus ThreeTopicCorpus() {
  text::Analyzer analyzer;
  text::Corpus corpus;
  corpus.AddDocument("space1",
                     analyzer.Analyze("the rocket launched toward the moon "
                                      "carrying astronauts into orbit"));
  corpus.AddDocument("space2",
                     analyzer.Analyze("astronauts aboard the orbit station "
                                      "watched the moon and the stars"));
  corpus.AddDocument("cars1",
                     analyzer.Analyze("the engine of the car roared as the "
                                      "automobile sped down the road"));
  corpus.AddDocument("cars2",
                     analyzer.Analyze("mechanics repaired the engine and "
                                      "the brakes of the old automobile"));
  corpus.AddDocument("food1",
                     analyzer.Analyze("simmer the garlic and tomatoes into "
                                      "a sauce for the fresh pasta"));
  corpus.AddDocument("food2",
                     analyzer.Analyze("bake the bread with garlic butter "
                                      "and serve with pasta and sauce"));
  return corpus;
}

ShardSetOptions SmallOptions(std::size_t num_shards) {
  ShardSetOptions options;
  options.num_shards = num_shards;
  options.engine.rank = 3;
  options.engine.solver = core::SvdSolver::kJacobi;
  return options;
}

TEST(ShardOfTest, RoundRobinCoversEveryShardExactlyOnce) {
  const std::size_t n = 3;
  std::vector<std::size_t> owned(n, 0);
  for (std::size_t d = 0; d < 12; ++d) ++owned[ShardSet::ShardOf(d, n)];
  for (std::size_t s = 0; s < n; ++s) EXPECT_EQ(owned[s], 4u) << s;
}

TEST(ShardSetTest, RejectsZeroShards) {
  EXPECT_FALSE(ShardSet::Build(ThreeTopicCorpus(), SmallOptions(0)).ok());
}

TEST(ShardSetTest, EveryDocumentLivesInExactlyOneShard) {
  const text::Corpus corpus = ThreeTopicCorpus();
  auto set = ShardSet::Build(corpus, SmallOptions(3));
  ASSERT_TRUE(set.ok()) << set.status().message();
  // Each shard answers queries only with the documents it owns, under
  // their global ids and names.
  for (std::size_t s = 0; s < set->num_shards(); ++s) {
    auto hits = set->shard(s).Query("moon astronauts engine pasta", 10);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(hits->size(), 2u);
    for (const core::EngineHit& hit : *hits) {
      EXPECT_EQ(ShardSet::ShardOf(hit.document, set->num_shards()), s)
          << "document " << hit.document << " leaked into shard " << s;
      EXPECT_EQ(hit.document_name, corpus.document(hit.document).name());
    }
  }
}

TEST(ShardSetTest, EachShardHoldsOnlyItsOwnRows) {
  const text::Corpus corpus = ThreeTopicCorpus();
  for (std::size_t n = 1; n <= 4; ++n) {
    auto set = ShardSet::Build(corpus, SmallOptions(n));
    ASSERT_TRUE(set.ok()) << set.status().message();
    std::size_t total = 0;
    for (std::size_t s = 0; s < n; ++s) {
      std::size_t owned = 0;
      for (std::size_t d = 0; d < corpus.NumDocuments(); ++d) {
        owned += ShardSet::ShardOf(d, n) == s ? 1 : 0;
      }
      const core::LsiEngine& shard = set->shard(s);
      EXPECT_EQ(shard.NumDocuments(), owned) << n << " shards, shard " << s;
      EXPECT_EQ(shard.index().NumDeleted(), 0u);
      EXPECT_TRUE(shard.index().IsSlice());
      total += shard.NumDocuments();
    }
    EXPECT_EQ(total, corpus.NumDocuments()) << n << " shards";
  }
}

TEST(ShardSetTest, IdCallsTakeGlobalIds) {
  const text::Corpus corpus = ThreeTopicCorpus();
  auto unsharded = core::LsiEngine::Build(corpus, SmallOptions(1).engine);
  ASSERT_TRUE(unsharded.ok());
  auto set = ShardSet::Build(corpus, SmallOptions(2));
  ASSERT_TRUE(set.ok()) << set.status().message();
  for (std::size_t d = 0; d < corpus.NumDocuments(); ++d) {
    const std::size_t owner = ShardSet::ShardOf(d, 2);
    const core::LsiEngine& shard = set->shard(owner);
    const core::LsiEngine& other = set->shard(1 - owner);

    auto name = shard.DocumentName(d);
    ASSERT_TRUE(name.ok()) << name.status().message();
    EXPECT_EQ(*name, corpus.document(d).name());
    EXPECT_EQ(other.DocumentName(d).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(other.MoreLikeThis(d).status().code(), StatusCode::kNotFound);

    // The owner's MoreLikeThis is the unsharded one restricted to the
    // owner's documents, in the same order with the same scores.
    auto expected = unsharded->MoreLikeThis(d, 0);
    ASSERT_TRUE(expected.ok());
    auto similar = shard.MoreLikeThis(d, 0);
    ASSERT_TRUE(similar.ok()) << similar.status().message();
    std::size_t i = 0;
    for (const core::EngineHit& hit : *expected) {
      if (ShardSet::ShardOf(hit.document, 2) != owner) continue;
      ASSERT_LT(i, similar->size());
      EXPECT_EQ((*similar)[i].document, hit.document);
      EXPECT_EQ((*similar)[i].document_name, hit.document_name);
      EXPECT_EQ((*similar)[i].score, hit.score);
      ++i;
    }
    EXPECT_EQ(i, similar->size());
  }
  EXPECT_EQ(set->shard(0).DocumentName(99).status().code(),
            StatusCode::kNotFound);
}

TEST(ShardSetTest, MoreShardsThanDocumentsMergesToUnsharded) {
  const text::Corpus corpus = ThreeTopicCorpus();
  auto unsharded = core::LsiEngine::Build(corpus, SmallOptions(1).engine);
  ASSERT_TRUE(unsharded.ok());
  auto set = ShardSet::Build(corpus, SmallOptions(9));
  ASSERT_TRUE(set.ok()) << set.status().message();
  EXPECT_EQ(set->shard(8).NumDocuments(), 0u);
  auto empty = set->shard(8).Query("garlic pasta sauce", 3);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  for (const char* query : {"garlic pasta sauce", "moon engine pasta"}) {
    auto expected = unsharded->Query(query, 0);
    ASSERT_TRUE(expected.ok());
    auto merged = set->Query(query, 0);
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    ASSERT_EQ(merged->size(), expected->size());
    for (std::size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ((*merged)[i].document, (*expected)[i].document);
      EXPECT_EQ((*merged)[i].document_name, (*expected)[i].document_name);
      EXPECT_EQ((*merged)[i].score, (*expected)[i].score);
    }
  }
}

TEST(ShardSetTest, SliceRefusesWritesAndSave) {
  auto set = ShardSet::Build(ThreeTopicCorpus(), SmallOptions(2));
  ASSERT_TRUE(set.ok()) << set.status().message();
  core::LsiEngine shard = set->shard(0);
  EXPECT_EQ(shard.FoldInDocument("new", "moon orbit").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(shard.RemoveDocument(0).code(), StatusCode::kFailedPrecondition);
  const std::string path = ::testing::TempDir() + "/slice_engine.bin";
  std::remove(path.c_str());
  EXPECT_EQ(shard.Save(path).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(shard.index().Save(path).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_EQ(shard.NumDocuments(), set->shard(0).NumDocuments());
}

TEST(ShardSetTest, SliceTakesAscendingIdsItHolds) {
  auto engine =
      core::LsiEngine::Build(ThreeTopicCorpus(), SmallOptions(1).engine);
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine->Slice({2, 1}).ok());
  EXPECT_FALSE(engine->Slice({1, 1}).ok());
  EXPECT_FALSE(engine->Slice({0, 6}).ok());
  EXPECT_TRUE(engine->Slice({}).ok());

  // A slice of a slice takes and returns the same engine-wide ids.
  auto odd = engine->Slice({1, 3, 5});
  ASSERT_TRUE(odd.ok());
  EXPECT_EQ(odd->Slice({2}).status().code(), StatusCode::kNotFound);
  auto last = odd->Slice({5});
  ASSERT_TRUE(last.ok()) << last.status().message();
  EXPECT_EQ(last->NumDocuments(), 1u);
  EXPECT_EQ(*last->DocumentName(5), "food2");
  auto hits = last->Query("garlic pasta", 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].document, 5u);
}

// The ids of a ranking, mapped through `ids` (identity when empty).
std::vector<std::pair<std::size_t, double>> Ranking(
    const std::vector<core::SearchResult>& results,
    const std::vector<std::size_t>& ids = {}) {
  std::vector<std::pair<std::size_t, double>> out;
  for (const core::SearchResult& r : results) {
    out.emplace_back(ids.empty() ? r.document : ids[r.document], r.score);
  }
  return out;
}

TEST(ShardSetTest, SliceJudgesFloorRowsByTheSourceMax) {
  // Row 1 is 1e-13 of the max row 0: a floor row (at most 1e-12 of the
  // max), which scores 0. Without row 0 the largest row is row 2, and
  // against that row 1 would not be at the floor.
  linalg::SvdResult svd;
  svd.u = linalg::DenseMatrix{{1.0, 0.0}, {0.0, 1.0}};
  svd.singular_values = linalg::DenseVector{1.0, 1.0};
  svd.v = linalg::DenseMatrix{{1.0, 0.0}, {1e-13, 0.0}, {0.05, 0.05}};
  auto full = core::LsiIndex::FromSvd(svd);
  ASSERT_TRUE(full.ok());
  const std::vector<std::size_t> rows = {1, 2};
  auto slice = full->Slice(rows);
  ASSERT_TRUE(slice.ok()) << slice.status().message();
  EXPECT_TRUE(slice->IsFloorRow(core::LsiIndex::Rows::kDocuments, 0));

  const double probe[2] = {1.0, 0.0};
  const auto kDocs = core::LsiIndex::Rows::kDocuments;
  // The full ranking without row 0 is what the slice must answer.
  auto expected = Ranking(full->ScanTopK(kDocs, probe, 0, 0));
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_EQ(expected[0].first, 2u);
  EXPECT_EQ(expected[1], std::make_pair(std::size_t{1}, 0.0));
  EXPECT_EQ(Ranking(slice->ScanTopK(kDocs, probe, 0), rows), expected);

  // Tombstoning row 0 in a copy instead rescans the max over the rows
  // left, so row 1 leaves the floor and ranks first with cosine 1.
  core::LsiIndex tombstoned = *full;
  ASSERT_TRUE(tombstoned.MarkDeleted(0).ok());
  EXPECT_NE(Ranking(tombstoned.ScanTopK(kDocs, probe, 0)), expected);
}

TEST(ShardSetTest, MergedQueryIsBitIdenticalToUnshardedEngine) {
  const text::Corpus corpus = ThreeTopicCorpus();
  auto unsharded = core::LsiEngine::Build(corpus, SmallOptions(1).engine);
  ASSERT_TRUE(unsharded.ok());
  const std::vector<std::string> queries = {
      "astronauts near the moon", "repairing a car engine",
      "garlic pasta sauce", "moon engine pasta"};
  for (std::size_t n = 1; n <= 4; ++n) {
    auto set = ShardSet::Build(corpus, SmallOptions(n));
    ASSERT_TRUE(set.ok()) << set.status().message();
    for (const std::string& query : queries) {
      auto expected = unsharded->Query(query, 4);
      ASSERT_TRUE(expected.ok());
      auto merged = set->Query(query, 4);
      ASSERT_TRUE(merged.ok()) << merged.status().message();
      ASSERT_EQ(merged->size(), expected->size()) << n << " shards";
      for (std::size_t i = 0; i < expected->size(); ++i) {
        // Exact double equality is the point: shared latent space means
        // the sharded scores ARE the unsharded scores.
        EXPECT_EQ((*merged)[i].document, (*expected)[i].document);
        EXPECT_EQ((*merged)[i].document_name, (*expected)[i].document_name);
        EXPECT_EQ((*merged)[i].score, (*expected)[i].score);
      }
    }
  }
}

TEST(ShardSetTest, QueryBatchMatchesPerQueryResults) {
  auto set = ShardSet::Build(ThreeTopicCorpus(), SmallOptions(2));
  ASSERT_TRUE(set.ok());
  const std::vector<std::string> queries = {"astronauts near the moon",
                                            "garlic pasta sauce"};
  auto batch = set->QueryBatch(queries, 3);
  ASSERT_TRUE(batch.ok()) << batch.status().message();
  ASSERT_EQ(batch->size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    auto single = set->Query(queries[q], 3);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ((*batch)[q].size(), single->size());
    for (std::size_t i = 0; i < single->size(); ++i) {
      EXPECT_EQ((*batch)[q][i].document, (*single)[i].document);
      EXPECT_EQ((*batch)[q][i].score, (*single)[i].score);
    }
  }
}

TEST(MergeTopKHitsTest, MergesByScoreThenDocumentId) {
  auto hit = [](std::size_t doc, double score) {
    core::EngineHit h;
    h.document = doc;
    h.document_name = "d" + std::to_string(doc);
    h.score = score;
    return h;
  };
  std::vector<std::vector<core::EngineHit>> sources;
  sources.push_back({hit(0, 0.9), hit(2, 0.5)});
  sources.push_back({hit(1, 0.9), hit(3, 0.7)});
  auto merged = core::MergeTopKHits(std::move(sources), 3);
  ASSERT_EQ(merged.size(), 3u);
  // Tie at 0.9 breaks toward the lower document id, matching the
  // unsharded engine's stable ranking.
  EXPECT_EQ(merged[0].document, 0u);
  EXPECT_EQ(merged[1].document, 1u);
  EXPECT_EQ(merged[2].document, 3u);
}

TEST(MergeTopKHitsTest, ZeroTopKKeepsEverythingAndEmptyInputIsEmpty) {
  EXPECT_TRUE(core::MergeTopKHits({}, 5).empty());
  auto hit = [](std::size_t doc, double score) {
    core::EngineHit h;
    h.document = doc;
    h.score = score;
    return h;
  };
  std::vector<std::vector<core::EngineHit>> sources;
  sources.push_back({hit(0, 0.1)});
  sources.push_back({hit(1, 0.2), hit(2, 0.05)});
  auto merged = core::MergeTopKHits(std::move(sources), 0);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].document, 1u);
}

}  // namespace
}  // namespace lsi::shard
