// End-to-end observability: building and querying an engine must leave
// solver convergence telemetry and stage latency histograms in the global
// registry, and the logging fast path must not evaluate suppressed
// operands.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/engine.h"
#include "model/separable_model.h"
#include "obs/metrics.h"
#include "par/par.h"
#include "text/analyzer.h"

namespace lsi::core {
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

std::uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

obs::Histogram& Stage(const std::string& name) {
  return obs::MetricsRegistry::Global().GetHistogram(name);
}

constexpr const char* kBuildStages[] = {
    "lsi.engine.build_ms", "lsi.engine.build.weight_ms",
    "lsi.engine.build.factor_ms", "lsi.engine.build.project_ms"};
constexpr const char* kQueryStages[] = {
    "lsi.engine.query.latency_ms", "lsi.engine.query.analyze_ms",
    "lsi.engine.query.weight_ms", "lsi.index.search_ms"};

TEST(EngineStatsTest, BuildRecordsSolverTelemetryAndStageHistograms) {
  obs::MetricsRegistry::Global().Reset();

  LsiEngineOptions options;
  options.rank = 3;
  options.solver = SvdSolver::kLanczos;
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  EXPECT_EQ(CounterValue("lsi.engine.builds"), 1u);
  EXPECT_EQ(CounterValue("lsi.svd.lanczos.solves"), 1u);
  EXPECT_GT(CounterValue("lsi.svd.lanczos.iterations"), 0u);
  EXPECT_GT(CounterValue("lsi.svd.lanczos.matvecs"), 0u);
  EXPECT_GT(CounterValue("lsi.svd.lanczos.reorth_passes"), 0u);
  // A 6-document toy problem converges to well under the 1e-6 threshold.
  obs::Gauge& converged =
      obs::MetricsRegistry::Global().GetGauge("lsi.svd.lanczos.converged");
  EXPECT_DOUBLE_EQ(converged.value(), 1.0);

  for (const char* name : kBuildStages) {
    EXPECT_EQ(Stage(name).count(), 1u) << name;
    EXPECT_GE(Stage(name).sum(), 0.0) << name;
  }
  // The stages run inside the build, so they cannot exceed it.
  EXPECT_LE(Stage("lsi.engine.build.factor_ms").sum(),
            Stage("lsi.engine.build_ms").sum());
}

TEST(EngineStatsTest, BuildRecordsLanczosStageTimes) {
  obs::MetricsRegistry::Global().Reset();

  LsiEngineOptions options;
  options.rank = 3;
  options.solver = SvdSolver::kLanczos;
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Every stage of the solve advances its cumulative millisecond total,
  // and the stages together fit inside the build's wall time.
  double stages_ms = 0.0;
  for (const char* name :
       {"lsi.svd.lanczos.apply_ms", "lsi.svd.lanczos.reorth_ms",
        "lsi.svd.lanczos.tridiag_ms", "lsi.svd.lanczos.ritz_ms"}) {
    const double ms = obs::MetricsRegistry::Global().GetGauge(name).value();
    EXPECT_GT(ms, 0.0) << name;
    stages_ms += ms;
  }
  EXPECT_LE(stages_ms, Stage("lsi.engine.build_ms").sum());

  // A second build adds to the totals rather than replacing them.
  const double apply_before =
      obs::MetricsRegistry::Global().GetGauge("lsi.svd.lanczos.apply_ms")
          .value();
  auto again = LsiEngine::Build(ThreeTopicCorpus(), options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GT(
      obs::MetricsRegistry::Global().GetGauge("lsi.svd.lanczos.apply_ms")
          .value(),
      apply_before);
}

TEST(EngineStatsTest, QueryRecordsStageHistograms) {
  obs::MetricsRegistry::Global().Reset();

  LsiEngineOptions options;
  options.rank = 3;
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto hits = engine->Query("rocket moon astronauts", 3);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_FALSE(hits->empty());

  EXPECT_EQ(CounterValue("lsi.engine.queries"), 1u);
  for (const char* name : kQueryStages) {
    EXPECT_EQ(Stage(name).count(), 1u) << name;
    EXPECT_GE(Stage(name).sum(), 0.0) << name;
  }
  EXPECT_LE(Stage("lsi.index.search_ms").sum(),
            Stage("lsi.engine.query.latency_ms").sum());

  auto similar = engine->MoreLikeThis(0, 3);
  ASSERT_TRUE(similar.ok());
  EXPECT_EQ(CounterValue("lsi.engine.more_like_this_calls"), 1u);
  EXPECT_EQ(Stage("lsi.engine.more_like_this_ms").count(), 1u);

  auto related = engine->RelatedTerms("rocket", 3);
  ASSERT_TRUE(related.ok());
  EXPECT_EQ(CounterValue("lsi.engine.related_terms_calls"), 1u);
  EXPECT_EQ(Stage("lsi.engine.related_terms_ms").count(), 1u);
}

TEST(EngineStatsTest, BatchWorkersRecordEveryQueryUnderOneName) {
  LsiEngineOptions options;
  options.rank = 3;
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  obs::MetricsRegistry::Global().Reset();

  // Queries that run on pool workers record under the same names as
  // ones on the calling thread: each stage gains one sample per query.
  par::SetThreads(4);
  const std::vector<std::string> queries = {
      "rocket moon",   "engine car",    "garlic pasta", "orbit stars",
      "brakes engine", "bread butter",  "astronauts",   "automobile road"};
  auto hits = engine->QueryBatch(queries, 3);
  par::SetThreads(0);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  for (const char* name : kQueryStages) {
    EXPECT_EQ(Stage(name).count(), queries.size()) << name;
  }
}

TEST(EngineStatsTest, ScansCountRowsScoredAndBuildTimesClustering) {
  model::SeparableModelParams params = model::PaperExperimentParams();
  Rng rng(404);
  const text::Corpus corpus = model::BuildSeparableModel(params)
                                  .value()
                                  .GenerateCorpus(2000, rng)
                                  .value()
                                  .corpus;
  obs::MetricsRegistry::Global().Reset();
  LsiEngineOptions options;
  options.rank = 20;
  auto engine = LsiEngine::Build(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetGauge("lsi.index.cluster_ms")
                .value(),
            0.0);
  ASSERT_TRUE(engine->RemoveDocument(7).ok());
  const LsiIndex& index = engine->index();
  const std::size_t candidates = index.NumDocuments() - index.NumDeleted();

  // On a §4 corpus the bounded scan leaves most rows unscored.
  std::uint64_t before = CounterValue("lsi.index.rows_scored");
  ASSERT_TRUE(engine->MoreLikeThis(0, 10).ok());
  const std::uint64_t bounded = CounterValue("lsi.index.rows_scored") - before;
  EXPECT_GT(bounded, 0u);
  EXPECT_LT(bounded, index.NumDocuments());

  // The full ranking scores every candidate: all rows but the tombstone
  // and the excluded source.
  const linalg::DenseVector probe = index.DocumentVector(0);
  before = CounterValue("lsi.index.rows_scored");
  (void)index.ScanTopK(LsiIndex::Rows::kDocuments, probe.data(), 0, 0);
  EXPECT_EQ(CounterValue("lsi.index.rows_scored") - before, candidates - 1);
}

TEST(EngineStatsTest, SuppressedLogDoesNotEvaluateStreamedArguments) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  ASSERT_FALSE(LogLevelEnabled(LogLevel::kDebug));

  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("costly");
  };
  LSI_LOG(Debug) << "value: " << expensive();
  LSI_LOG(Info) << "value: " << expensive();
  EXPECT_EQ(evaluations, 0);

  // An enabled level does evaluate its operands exactly once.
  SetLogLevel(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  LSI_LOG(Debug) << "value: " << expensive();
  testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluations, 1);

  SetLogLevel(original);
}

}  // namespace
}  // namespace lsi::core
