#include "live/live_engine.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "model/separable_model.h"
#include "text/analyzer.h"

namespace lsi::live {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

text::Corpus BaseCorpus() {
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

LiveOptions SmallOptions() {
  LiveOptions options;
  options.engine.rank = 3;
  options.engine.solver = core::SvdSolver::kJacobi;
  options.background_refresh = false;  // Tests drive refreshes directly.
  return options;
}

std::unique_ptr<LiveEngine> OpenFresh(const char* wal_name,
                                      LiveOptions options = SmallOptions()) {
  const std::string path = TempPath(wal_name);
  std::remove(path.c_str());
  auto live = LiveEngine::Open(BaseCorpus(), path, std::move(options));
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return live.ok() ? std::move(live).value() : nullptr;
}

std::vector<std::string> TopNames(const core::LsiEngine& engine,
                                  const std::string& query, std::size_t k) {
  auto hits = engine.Query(query, k);
  EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  std::vector<std::string> names;
  if (hits.ok()) {
    for (const auto& hit : hits.value()) names.push_back(hit.document_name);
  }
  return names;
}

TEST(LiveEngineTest, AddBecomesVisibleToQueries) {
  auto live = OpenFresh("live_add.log");
  ASSERT_NE(live, nullptr);
  const std::uint64_t epoch_before = live->epoch();

  auto receipt =
      live->Add("space3", "a telescope watched the moon orbit the planet");
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->seq, 1u);
  EXPECT_GT(live->epoch(), epoch_before);

  auto snapshot = live->Snapshot();
  EXPECT_EQ(snapshot->NumDocuments(), 7u);
  const std::vector<std::string> top =
      TopNames(*snapshot, "moon orbit telescope", 3);
  EXPECT_NE(std::find(top.begin(), top.end(), "space3"), top.end());
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, DeleteHidesDocumentAndMissingNameIsNotFound) {
  auto live = OpenFresh("live_delete.log");
  ASSERT_NE(live, nullptr);

  auto receipt = live->Delete("food1");
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->removed, 1u);

  auto snapshot = live->Snapshot();
  const std::vector<std::string> top =
      TopNames(*snapshot, "garlic pasta sauce", 6);
  EXPECT_EQ(std::find(top.begin(), top.end(), "food1"), top.end());
  EXPECT_NE(std::find(top.begin(), top.end(), "food2"), top.end());

  auto missing = live->Delete("no-such-doc");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The refused delete was never logged.
  EXPECT_EQ(live->stats().wal_records, 1u);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, UpdateReplacesAndUpsertsMissingName) {
  auto live = OpenFresh("live_update.log");
  ASSERT_NE(live, nullptr);

  auto replaced =
      live->Update("cars1", "the electric motor hummed in the quiet car");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced->removed, 1u);

  auto upserted = live->Update("cars3", "the gearbox and clutch of the car");
  ASSERT_TRUE(upserted.ok());
  EXPECT_EQ(upserted->removed, 0u);

  const LiveStats stats = live->stats();
  EXPECT_EQ(stats.wal_records, 2u);
  EXPECT_EQ(stats.tombstones, 1u);
  EXPECT_EQ(stats.documents, 7u);  // 6 base - 1 replaced + 2 added.
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, RejectsMalformedWrites) {
  auto live = OpenFresh("live_validate.log");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->Add("", "text").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->Add("tab\tname", "text").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->Add("name", "line\nbreak").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->Add(std::string(kWalMaxNameBytes + 1, 'n'), "t")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->stats().wal_records, 0u);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, PublishEveryBatchesVisibility) {
  LiveOptions options = SmallOptions();
  options.publish_every = 3;
  auto live = OpenFresh("live_batch.log", options);
  ASSERT_NE(live, nullptr);
  const std::uint64_t epoch0 = live->epoch();

  ASSERT_TRUE(live->Add("w1", "alpha beta gamma").ok());
  ASSERT_TRUE(live->Add("w2", "delta epsilon zeta").ok());
  // Durable but not yet visible.
  EXPECT_EQ(live->epoch(), epoch0);
  EXPECT_EQ(live->Snapshot()->NumDocuments(), 6u);
  EXPECT_EQ(live->stats().pending_writes, 2u);

  ASSERT_TRUE(live->Add("w3", "eta theta iota").ok());
  EXPECT_EQ(live->epoch(), epoch0 + 1);
  EXPECT_EQ(live->Snapshot()->NumDocuments(), 9u);

  // Flush publishes a partial batch.
  ASSERT_TRUE(live->Add("w4", "kappa lambda mu").ok());
  EXPECT_EQ(live->Snapshot()->NumDocuments(), 9u);
  ASSERT_TRUE(live->Flush().ok());
  EXPECT_EQ(live->Snapshot()->NumDocuments(), 10u);
  EXPECT_EQ(live->stats().pending_writes, 0u);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, SnapshotsAreImmutableAcrossWrites) {
  auto live = OpenFresh("live_pin.log");
  ASSERT_NE(live, nullptr);
  auto pinned = live->Snapshot();
  const std::size_t docs_before = pinned->NumDocuments();
  ASSERT_TRUE(live->Add("new1", "completely new content here").ok());
  ASSERT_TRUE(live->Delete("food2").ok());
  // The pinned snapshot still answers from its epoch.
  EXPECT_EQ(pinned->NumDocuments(), docs_before);
  const std::vector<std::string> top = TopNames(*pinned, "garlic pasta", 6);
  EXPECT_NE(std::find(top.begin(), top.end(), "food2"), top.end());
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, ReplayRestoresAcknowledgedWritesExactly) {
  const std::string path = TempPath("live_replay.log");
  std::remove(path.c_str());
  std::vector<std::string> probe_queries = {"moon orbit telescope",
                                            "garlic pasta sauce",
                                            "engine automobile"};
  std::vector<std::vector<std::string>> expected;
  {
    auto live = LiveEngine::Open(BaseCorpus(), path, SmallOptions());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(
        (*live)->Add("space3", "a telescope watched the moon orbit").ok());
    ASSERT_TRUE((*live)->Delete("food1").ok());
    ASSERT_TRUE(
        (*live)->Update("cars1", "the electric motor in the car").ok());
    for (const auto& q : probe_queries) {
      expected.push_back(TopNames(*(*live)->Snapshot(), q, 7));
    }
    ASSERT_TRUE((*live)->Close().ok());
  }

  // "Crash" and restart: replay must reproduce identical rankings.
  auto live = LiveEngine::Open(BaseCorpus(), path, SmallOptions());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ((*live)->stats().wal_records, 3u);
  auto snapshot = (*live)->Snapshot();
  for (std::size_t i = 0; i < probe_queries.size(); ++i) {
    EXPECT_EQ(TopNames(*snapshot, probe_queries[i], 7), expected[i])
        << probe_queries[i];
  }
  ASSERT_TRUE((*live)->Close().ok());
}

std::string ReadBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string bytes;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(f);
  return bytes;
}

// Live writes fold in over their few terms of a 20,000-term vocabulary
// (a §4 separable-model corpus at rank 100); replaying the WAL after a
// restart must fold them to the very same bytes.
TEST(LiveEngineTest, WideVocabularyReplaySavesByteIdentical) {
  model::SeparableModelParams params;
  params.num_topics = 20;
  params.terms_per_topic = 1000;
  params.min_document_length = 40;
  params.max_document_length = 80;
  Rng rng(1515);
  const text::Corpus corpus = model::BuildSeparableModel(params)
                                  .value()
                                  .GenerateCorpus(300, rng)
                                  .value()
                                  .corpus;
  const std::vector<std::string>& terms = corpus.vocabulary().terms();
  ASSERT_EQ(terms.size(), 20000u);
  LiveOptions options;
  options.engine.rank = 100;
  options.background_refresh = false;
  const std::string path = TempPath("live_wide_replay.log");
  std::remove(path.c_str());

  std::string kept_running;
  {
    auto live = LiveEngine::Open(corpus, path, options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_TRUE((*live)->Add("w1", terms[3] + " " + terms[3] + " " +
                                       terms[1200] + " " + terms[19999])
                    .ok());
    ASSERT_TRUE((*live)->Update(corpus.document(7).name(),
                                terms[4321] + " " + terms[8000])
                    .ok());
    ASSERT_TRUE((*live)->Delete(corpus.document(11).name()).ok());
    ASSERT_TRUE((*live)->Add("w2", terms[15000] + " unknownword").ok());
    ASSERT_TRUE((*live)->Update("w1", terms[42]).ok());
    const std::string saved = TempPath("live_wide_kept.bin");
    ASSERT_TRUE((*live)->Snapshot()->Save(saved).ok());
    kept_running = ReadBytes(saved);
    ASSERT_TRUE((*live)->Close().ok());
  }

  auto restarted = LiveEngine::Open(corpus, path, options);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ((*restarted)->stats().wal_records, 5u);
  const std::string saved = TempPath("live_wide_restarted.bin");
  ASSERT_TRUE((*restarted)->Snapshot()->Save(saved).ok());
  EXPECT_EQ(ReadBytes(saved), kept_running);
  ASSERT_TRUE((*restarted)->Close().ok());
}

TEST(LiveEngineTest, OpenRefusesMismatchedCorpus) {
  const std::string path = TempPath("live_mismatch.log");
  std::remove(path.c_str());
  {
    auto live = LiveEngine::Open(BaseCorpus(), path, SmallOptions());
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->Close().ok());
  }
  text::Corpus bigger = BaseCorpus();
  text::Analyzer analyzer;
  bigger.AddDocument("extra", analyzer.Analyze("one more document"));
  auto live = LiveEngine::Open(std::move(bigger), path, SmallOptions());
  EXPECT_FALSE(live.ok());
  EXPECT_EQ(live.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LiveEngineTest, ForceRefreshMatchesFreshBuildBitForBit) {
  auto live = OpenFresh("live_refresh.log");
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Add("space3", "a telescope watched the moon orbit").ok());
  ASSERT_TRUE(live->Delete("cars2").ok());
  ASSERT_TRUE(live->Update("food1", "fresh basil pesto over pasta").ok());

  ASSERT_TRUE(live->ForceRefresh().ok());
  const LiveStats stats = live->stats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.folded_since_refresh, 0u);
  EXPECT_EQ(stats.drift_mean_radians, 0.0);

  // The refreshed engine must be byte-identical (same serialized form)
  // to LsiEngine::Build over the compacted corpus the refresh saw.
  auto snapshot = live->Snapshot();
  EXPECT_EQ(snapshot->NumDocuments(), 6u);
  const std::string refreshed_path = TempPath("live_refreshed_engine.bin");
  ASSERT_TRUE(snapshot->Save(refreshed_path).ok());

  text::Corpus accumulated = BaseCorpus();
  text::Analyzer analyzer;
  accumulated.AddDocument(
      "space3", analyzer.Analyze("a telescope watched the moon orbit"));
  accumulated.AddDocument("food1",
                          analyzer.Analyze("fresh basil pesto over pasta"));
  std::vector<std::uint8_t> alive = {1, 1, 1, 0, 0, 1, 1, 1};
  alive[4] = 0;  // food1 replaced by the update; cars2 deleted above.
  alive[3] = 0;
  text::Corpus reference_corpus = CompactCorpus(accumulated, alive);
  auto reference =
      core::LsiEngine::Build(reference_corpus, SmallOptions().engine);
  ASSERT_TRUE(reference.ok());
  const std::string reference_path = TempPath("live_reference_engine.bin");
  ASSERT_TRUE(reference->Save(reference_path).ok());

  std::FILE* a = std::fopen(refreshed_path.c_str(), "rb");
  std::FILE* b = std::fopen(reference_path.c_str(), "rb");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::string bytes_a, bytes_b;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), a)) > 0) {
    bytes_a.append(buffer, n);
  }
  while ((n = std::fread(buffer, 1, sizeof(buffer), b)) > 0) {
    bytes_b.append(buffer, n);
  }
  std::fclose(a);
  std::fclose(b);
  EXPECT_EQ(bytes_a, bytes_b);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, WritesAfterCloseFail) {
  auto live = OpenFresh("live_closed.log");
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Close().ok());
  EXPECT_EQ(live->Add("a", "b").status().code(),
            StatusCode::kFailedPrecondition);
  // Close is idempotent.
  EXPECT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, DriftStatsAccumulateAndResetOnRefresh) {
  auto live = OpenFresh("live_drift.log");
  ASSERT_NE(live, nullptr);
  // A rank-3 index over three topics discards roughly half the spectrum,
  // so an in-vocabulary document folds in with a nonzero residual angle.
  ASSERT_TRUE(live->Add("mixed", "garlic rocket engine moon pasta").ok());
  ASSERT_TRUE(live->Add("inspan", "astronauts orbit the moon").ok());
  const LiveStats stats = live->stats();
  EXPECT_EQ(stats.folded_since_refresh, 2u);
  EXPECT_GT(stats.drift_max_radians, 0.0);
  EXPECT_GE(stats.drift_max_radians, stats.drift_mean_radians);
  EXPECT_GT(stats.drift_mean_radians, 0.0);

  // A refresh folds everything into the new basis: drift starts over.
  ASSERT_TRUE(live->ForceRefresh().ok());
  EXPECT_EQ(live->stats().drift_mean_radians, 0.0);
  EXPECT_EQ(live->stats().folded_since_refresh, 0u);
  ASSERT_TRUE(live->Close().ok());
}

TEST(LiveEngineTest, AllOovAddFoldsInWithZeroDrift) {
  auto live = OpenFresh("live_oov.log");
  ASSERT_NE(live, nullptr);
  // Every term is out of vocabulary: the folded vector is zero, the
  // residual angle is defined as 0, and the document is still tracked
  // (it would gain content on a later update + refresh).
  auto receipt = live->Add("oov", "xylophone quasar bagpipe marmalade");
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  const LiveStats stats = live->stats();
  EXPECT_EQ(stats.documents, 7u);
  EXPECT_EQ(stats.drift_max_radians, 0.0);
  auto hits = live->Snapshot()->Query("astronauts moon", 7);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : hits.value()) {
    // The zero vector can never actually match anything.
    if (hit.document_name == "oov") {
      EXPECT_EQ(hit.score, 0.0);
    }
  }
  ASSERT_TRUE(live->Close().ok());
}

}  // namespace
}  // namespace lsi::live
