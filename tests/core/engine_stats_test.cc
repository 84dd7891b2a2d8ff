// End-to-end observability: building and querying an engine must leave
// solver convergence telemetry and stage spans in the global registries,
// and the logging fast path must not evaluate suppressed operands.

#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/span.h"
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

obs::SpanStats SpanValue(const std::string& path) {
  for (const auto& [span_path, stats] :
       obs::SpanRegistry::Global().Snapshot()) {
    if (span_path == path) return stats;
  }
  return obs::SpanStats{};
}

TEST(EngineStatsTest, BuildRecordsSolverTelemetryAndStageSpans) {
  obs::MetricsRegistry::Global().Reset();
  obs::SpanRegistry::Global().Reset();

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

  for (const char* path : {"engine.build", "engine.build.weight",
                           "engine.build.factor", "engine.build.project"}) {
    obs::SpanStats stats = SpanValue(path);
    EXPECT_EQ(stats.count, 1u) << path;
    EXPECT_GE(stats.total_seconds, 0.0) << path;
  }
  // Stage spans nest inside the build span, so they cannot exceed it.
  EXPECT_LE(SpanValue("engine.build.factor").total_seconds,
            SpanValue("engine.build").total_seconds);
}

TEST(EngineStatsTest, BuildRecordsLanczosStageTimes) {
  obs::MetricsRegistry::Global().Reset();
  obs::SpanRegistry::Global().Reset();

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
  EXPECT_LE(stages_ms, SpanValue("engine.build").total_seconds * 1e3);

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

TEST(EngineStatsTest, QueryRecordsSpansAndLatencyHistogram) {
  obs::MetricsRegistry::Global().Reset();
  obs::SpanRegistry::Global().Reset();

  LsiEngineOptions options;
  options.rank = 3;
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  auto hits = engine->Query("rocket moon astronauts", 3);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_FALSE(hits->empty());

  EXPECT_EQ(CounterValue("lsi.engine.queries"), 1u);
  for (const char* path : {"engine.query", "engine.query.analyze",
                           "engine.query.weight", "engine.query.score"}) {
    EXPECT_EQ(SpanValue(path).count, 1u) << path;
  }
  obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "lsi.engine.query.latency_ms");
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_GE(latency.sum(), 0.0);

  auto similar = engine->MoreLikeThis(0, 3);
  ASSERT_TRUE(similar.ok());
  EXPECT_EQ(CounterValue("lsi.engine.more_like_this_calls"), 1u);
  EXPECT_EQ(SpanValue("engine.more_like_this").count, 1u);

  auto related = engine->RelatedTerms("rocket", 3);
  ASSERT_TRUE(related.ok());
  EXPECT_EQ(CounterValue("lsi.engine.related_terms_calls"), 1u);
  EXPECT_EQ(SpanValue("engine.related_terms").count, 1u);
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
