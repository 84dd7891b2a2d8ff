#include "core/engine.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "par/par.h"
#include "text/analyzer.h"
#include "text/corpus_io.h"

namespace lsi::core {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

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

LsiEngineOptions SmallOptions() {
  LsiEngineOptions options;
  options.rank = 3;
  options.solver = SvdSolver::kJacobi;
  return options;
}

TEST(LsiEngineTest, RejectsEmptyCorpus) {
  text::Corpus empty;
  EXPECT_FALSE(LsiEngine::Build(empty, SmallOptions()).ok());
}

TEST(LsiEngineTest, BuildClampsRank) {
  LsiEngineOptions options;
  options.rank = 500;  // Way above min(terms, docs).
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), options);
  ASSERT_TRUE(engine.ok());
  EXPECT_LE(engine->rank(), 6u);
}

TEST(LsiEngineTest, QueryFindsTopic) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto hits = engine->Query("astronauts near the moon", 2);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_TRUE((*hits)[0].document_name == "space1" ||
              (*hits)[0].document_name == "space2");
  EXPECT_TRUE((*hits)[1].document_name == "space1" ||
              (*hits)[1].document_name == "space2");
}

TEST(LsiEngineTest, QueryAppliesAnalyzer) {
  // Inflected query forms must still match (stemming inside the engine).
  // "baking breads" stems to terms that only the food documents use; at
  // rank 3 LSI merges the two food documents into one topic direction,
  // so either may rank first — the point is the topic is right.
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto hits = engine->Query("baking breads", 1);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_TRUE((*hits)[0].document_name == "food1" ||
              (*hits)[0].document_name == "food2");
}

TEST(LsiEngineTest, UnknownQueryTermsIgnored) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto hits = engine->Query("zzz qqq xyzzy", 3);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(LsiEngineTest, QueryBatchMatchesIndividualQueries) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> queries = {
      "astronauts near the moon", "baking breads",
      "zzz qqq xyzzy",            "automobile engine repair",
      "garlic tomato sauce",      "rocket orbit station"};
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    par::SetThreads(threads);
    auto batched = engine->QueryBatch(queries, 3);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_EQ(batched->size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      auto single = engine->Query(queries[i], 3);
      ASSERT_TRUE(single.ok());
      ASSERT_EQ((*batched)[i].size(), single->size()) << "query " << i;
      for (std::size_t h = 0; h < single->size(); ++h) {
        EXPECT_EQ((*batched)[i][h].document, (*single)[h].document);
        EXPECT_EQ((*batched)[i][h].score, (*single)[h].score);
        EXPECT_EQ((*batched)[i][h].document_name, (*single)[h].document_name);
      }
    }
  }
  par::SetThreads(0);
}

TEST(LsiEngineTest, QueryBatchEmptyInput) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto batched = engine->QueryBatch({}, 5);
  ASSERT_TRUE(batched.ok());
  EXPECT_TRUE(batched->empty());
}

TEST(LsiEngineTest, MoreLikeThisFindsTopicMate) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto hits = engine->MoreLikeThis(2, 1);  // cars1.
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].document_name, "cars2");
  EXPECT_FALSE(engine->MoreLikeThis(99).ok());
}

TEST(LsiEngineTest, MoreLikeThisExcludesSelf) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto hits = engine->MoreLikeThis(0, 0);  // All documents.
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);
  for (const EngineHit& hit : hits.value()) {
    EXPECT_NE(hit.document, 0u);
  }
}

TEST(LsiEngineTest, MoreLikeThisSkipsTombstones) {
  // Regression test: a tombstoned row used to score 0 and outrank live
  // documents with negative cosines, and a tombstoned source used to
  // return arbitrary documents at score 0.
  text::Analyzer analyzer;
  auto corpus = text::LoadCorpusFromFile(
      LSI_REPO_ROOT "/data/mini_corpus.tsv", analyzer);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_EQ(corpus->NumDocuments(), 45u);
  LsiEngineOptions options;
  options.rank = 5;
  auto engine = LsiEngine::Build(corpus.value(), options);
  ASSERT_TRUE(engine.ok());
  for (std::size_t d = 10; d < 45; ++d) {
    ASSERT_TRUE(engine->RemoveDocument(d).ok());
  }
  auto hits = engine->MoreLikeThis(0, 20);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 9u);  // Every live document but the source.
  for (const EngineHit& hit : hits.value()) {
    EXPECT_LT(hit.document, 10u) << hit.document_name;
    EXPECT_NE(hit.document, 0u);
  }
  EXPECT_TRUE(engine->MoreLikeThis(10, 5).status().IsNotFound());
}

TEST(LsiEngineTest, RelatedTermsFindTopicVocabulary) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  // "garlic" should relate to other cooking vocabulary (pasta, sauce...)
  // ahead of automotive or space terms.
  auto related = engine->RelatedTerms("garlic", 5);
  ASSERT_TRUE(related.ok());
  ASSERT_EQ(related->size(), 5u);
  bool found_cooking = false;
  for (const RelatedTerm& r : related.value()) {
    EXPECT_NE(r.term, "garlic");  // Anchor excluded.
    if (r.term == "pasta" || r.term == "sauc" || r.term == "simmer" ||
        r.term == "bake" || r.term == "bread" || r.term == "butter" ||
        r.term == "tomato") {
      found_cooking = true;
    }
  }
  EXPECT_TRUE(found_cooking);
  EXPECT_GT((*related)[0].score, 0.9);  // Same-topic terms near-parallel.
}

TEST(LsiEngineTest, RelatedTermsAnalyzesInput) {
  // Inflected input maps onto the stemmed vocabulary.
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  auto related = engine->RelatedTerms("Engines", 3);
  ASSERT_TRUE(related.ok());
  EXPECT_EQ(related->size(), 3u);
}

TEST(LsiEngineTest, RelatedTermsValidation) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->RelatedTerms("xyzzy").status().IsNotFound());
  EXPECT_TRUE(
      engine->RelatedTerms("two words").status().IsInvalidArgument());
  EXPECT_TRUE(engine->RelatedTerms("the").status().IsInvalidArgument());
}

TEST(LsiEngineTest, CopyFoldsInWithoutMovingRows) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  LsiEngine copy = *engine;
  const double* first_row = copy.index().document_vectors().RowPtr(0);
  ASSERT_TRUE(copy.FoldInDocument("new", "moon orbit rocket").ok());
  EXPECT_EQ(copy.index().document_vectors().RowPtr(0), first_row);
  EXPECT_EQ(copy.NumDocuments(), engine->NumDocuments() + 1);
}

TEST(LsiEngineTest, DocumentName) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->DocumentName(4).value(), "food1");
  EXPECT_FALSE(engine->DocumentName(6).ok());
}

TEST(LsiEngineTest, SaveLoadRoundTrip) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  std::string path = TempPath("engine_roundtrip.bin");
  ASSERT_TRUE(engine->Save(path).ok());

  auto loaded = LsiEngine::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumTerms(), engine->NumTerms());
  EXPECT_EQ(loaded->NumDocuments(), engine->NumDocuments());
  EXPECT_EQ(loaded->rank(), engine->rank());
  EXPECT_EQ(loaded->weighting(), engine->weighting());

  // Identical query results after reload.
  auto original_hits = engine->Query("garlic pasta sauce", 2);
  auto loaded_hits = loaded->Query("garlic pasta sauce", 2);
  ASSERT_TRUE(original_hits.ok() && loaded_hits.ok());
  ASSERT_EQ(original_hits->size(), loaded_hits->size());
  for (std::size_t i = 0; i < original_hits->size(); ++i) {
    EXPECT_EQ((*original_hits)[i].document_name,
              (*loaded_hits)[i].document_name);
    EXPECT_DOUBLE_EQ((*original_hits)[i].score, (*loaded_hits)[i].score);
  }
  // The v2 format is single-file: everything, index included, lives in
  // `path`, so this is the only artifact to clean up.
  std::remove(path.c_str());
}

TEST(LsiEngineTest, FailedSaveLeavesPreviousEngineIntact) {
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), SmallOptions());
  ASSERT_TRUE(engine.ok());
  std::string path = TempPath("engine_atomic.bin");
  ASSERT_TRUE(engine->Save(path).ok());

  // Kill the re-save at several distinct stages; each failure must leave
  // the original file loadable and query-identical.
  auto baseline = engine->Query("garlic pasta sauce", 2);
  ASSERT_TRUE(baseline.ok());
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  for (const char* spec :
       {"core.engine.save=once@1", "io.fwrite=once@2", "io.fsync=once@1",
        "io.rename=once@1"}) {
    SCOPED_TRACE(spec);
    faults.DisarmAll();
    ASSERT_TRUE(faults.ArmFromString(spec).ok());
    EXPECT_FALSE(engine->Save(path).ok());
    faults.DisarmAll();

    auto reloaded = LsiEngine::Load(path);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    auto hits = reloaded->Query("garlic pasta sauce", 2);
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), baseline->size());
    for (std::size_t i = 0; i < hits->size(); ++i) {
      EXPECT_EQ((*hits)[i].document_name, (*baseline)[i].document_name);
    }
  }
  faults.DisarmAll();
  std::remove(path.c_str());
}

TEST(LsiEngineTest, LoadMissingIsNotFound) {
  EXPECT_TRUE(
      LsiEngine::Load(TempPath("missing_engine.bin")).status().IsNotFound());
}

TEST(LsiEngineTest, LoadGarbageRejected) {
  std::string path = TempPath("garbage_engine.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not an engine", f);
  std::fclose(f);
  EXPECT_FALSE(LsiEngine::Load(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lsi::core
