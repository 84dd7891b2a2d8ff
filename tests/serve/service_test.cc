#include "serve/service.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "obs/metrics.h"
#include "par/par.h"
#include "serve/json.h"
#include "text/analyzer.h"

namespace lsi::serve {
namespace {

using core::LsiEngine;

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

LsiEngine BuildEngine() {
  core::LsiEngineOptions options;
  options.rank = 3;
  options.solver = core::SvdSolver::kJacobi;
  auto engine = LsiEngine::Build(ThreeTopicCorpus(), options);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  return std::move(engine).value();
}

HttpRequest Request(std::string method, std::string target,
                    std::string body = "") {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  request.keep_alive = true;
  return request;
}

std::chrono::steady_clock::time_point Soon() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(20);
}

class LsiServiceTest : public ::testing::Test {
 protected:
  LsiServiceTest() : engine_(BuildEngine()), service_(engine_) {}

  HttpResponse Handle(const HttpRequest& request) {
    return service_.Handle(request, Soon());
  }

  LsiEngine engine_;
  LsiService service_;
};

TEST_F(LsiServiceTest, HealthzIsAlive) {
  HttpResponse response = Handle(Request("GET", "/healthz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");
}

TEST_F(LsiServiceTest, QueryReturnsRankedHits) {
  HttpResponse response = Handle(Request(
      "POST", "/query", R"({"query": "astronauts near the moon", "top_k": 2})"));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.content_type, "application/json; charset=utf-8");
  auto doc = JsonValue::Parse(response.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* hits = doc->Find("hits");
  ASSERT_NE(hits, nullptr);
  ASSERT_EQ(hits->array().size(), 2u);
  const std::string top = hits->array()[0].Find("name")->string_value();
  EXPECT_TRUE(top == "space1" || top == "space2") << top;
  // Hits must carry all three documented fields.
  EXPECT_NE(hits->array()[0].Find("document"), nullptr);
  EXPECT_NE(hits->array()[0].Find("score"), nullptr);
}

TEST_F(LsiServiceTest, QueryMatchesDirectEngineCall) {
  auto direct = engine_.Query("garlic pasta sauce", 3);
  ASSERT_TRUE(direct.ok());
  HttpResponse response = Handle(
      Request("POST", "/query", R"({"query": "garlic pasta sauce", "top_k": 3})"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = JsonValue::Parse(response.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* hits = doc->Find("hits");
  ASSERT_EQ(hits->array().size(), direct->size());
  for (std::size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(hits->array()[i].Find("name")->string_value(),
              (*direct)[i].document_name);
    EXPECT_EQ(hits->array()[i].Find("score")->number(), (*direct)[i].score);
  }
}

TEST_F(LsiServiceTest, RepeatAndSameAnalyzedFormAnswerTheSameBytes) {
  const HttpRequest request = Request(
      "POST", "/query", R"({"query": "repairing a car engine", "top_k": 2})");
  HttpResponse first = Handle(request);
  ASSERT_EQ(first.status, 200);
  HttpResponse second = Handle(request);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(second.body, first.body);

  // Same analyzed form, different surface text: the same answer.
  HttpResponse third = Handle(Request(
      "POST", "/query", R"({"query": "Repairing A CAR engine!!", "top_k": 2})"));
  ASSERT_EQ(third.status, 200);
  EXPECT_EQ(third.body, first.body);
}

TEST_F(LsiServiceTest, MultiQueryReturnsPerQueryResults) {
  HttpResponse response = Handle(Request(
      "POST", "/query",
      R"({"queries": ["astronauts near the moon", "garlic pasta sauce"], "top_k": 1})"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = JsonValue::Parse(response.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array().size(), 2u);
  const std::string first = results->array()[0]
                                .array()[0]
                                .Find("name")->string_value();
  const std::string second = results->array()[1]
                                 .array()[0]
                                 .Find("name")->string_value();
  EXPECT_TRUE(first == "space1" || first == "space2") << first;
  EXPECT_TRUE(second == "food1" || second == "food2") << second;
}

TEST_F(LsiServiceTest, RelatedReturnsNeighborTerms) {
  HttpResponse response =
      Handle(Request("POST", "/related", R"({"term": "moon", "top_k": 3})"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = JsonValue::Parse(response.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* related = doc->Find("related");
  ASSERT_NE(related, nullptr);
  EXPECT_EQ(related->array().size(), 3u);
}

TEST_F(LsiServiceTest, RelatedUnknownTermIs404) {
  HttpResponse response =
      Handle(Request("POST", "/related", R"({"term": "zzzqqqxxx"})"));
  EXPECT_EQ(response.status, 404);
}

TEST_F(LsiServiceTest, BadRequestsGet400WithJsonError) {
  const std::pair<const char*, const char*> cases[] = {
      {"/query", "not json"},
      {"/query", "[1,2]"},
      {"/query", "{}"},
      {"/query", R"({"query": 42})"},
      {"/query", R"({"query": "x", "queries": ["y"]})"},
      {"/query", R"({"query": "x", "top_k": 0})"},
      {"/query", R"({"query": "x", "top_k": -3})"},
      {"/query", R"({"query": "x", "top_k": 2.5})"},
      {"/query", R"({"query": "x", "top_k": 100000})"},
      {"/related", R"({"term": 7})"},
  };
  for (const auto& [target, body] : cases) {
    HttpResponse response = Handle(Request("POST", target, body));
    EXPECT_EQ(response.status, 400) << target << " " << body;
    auto doc = JsonValue::Parse(response.body);
    ASSERT_TRUE(doc.ok()) << response.body;
    EXPECT_NE(doc->Find("error"), nullptr);
  }
}

TEST_F(LsiServiceTest, UnknownRouteIs404AndWrongMethodIs405) {
  EXPECT_EQ(Handle(Request("GET", "/nope")).status, 404);
  HttpResponse wrong_method = Handle(Request("GET", "/query"));
  EXPECT_EQ(wrong_method.status, 405);
  bool saw_allow = false;
  for (const auto& [name, value] : wrong_method.extra_headers) {
    if (name == "Allow") saw_allow = true;
  }
  EXPECT_TRUE(saw_allow);
  EXPECT_EQ(Handle(Request("POST", "/healthz")).status, 405);
}

TEST_F(LsiServiceTest, QueryStringIsIgnoredForRouting) {
  EXPECT_EQ(Handle(Request("GET", "/healthz?verbose=1")).status, 200);
}

TEST_F(LsiServiceTest, StatuszReportsEngineAndRequests) {
  Handle(Request("POST", "/query", R"({"query": "moon orbit"})"));
  HttpResponse response = Handle(Request("GET", "/statusz"));
  ASSERT_EQ(response.status, 200);
  auto doc = JsonValue::Parse(response.body);
  ASSERT_TRUE(doc.ok()) << response.body;
  const JsonValue* engine = doc->Find("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_DOUBLE_EQ(engine->Find("documents")->number(), 6.0);
  // The service keeps no result cache, so there is no cache block.
  EXPECT_EQ(doc->Find("cache"), nullptr);
  EXPECT_NE(doc->Find("requests"), nullptr);
}

TEST_F(LsiServiceTest, MetricsExportIsPrometheus) {
  HttpResponse response = Handle(Request("GET", "/metrics"));
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type,
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(response.body.find("lsi_"), std::string::npos);
}

TEST(LsiServiceDeadlineTest, ExpiredDeadlineYields504) {
  LsiEngine engine = BuildEngine();
  LsiService service(engine);
  const obs::Histogram& engine_queries =
      obs::MetricsRegistry::Global().GetHistogram(
          "lsi.engine.query.latency_ms");
  const std::uint64_t before = engine_queries.count();
  HttpResponse response =
      service.Handle(Request("POST", "/query", R"({"query": "moon"})"),
                     std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1));
  EXPECT_EQ(response.status, 504);
  EXPECT_EQ(engine_queries.count(), before);  // The engine was not reached.
  service.Shutdown();
}

TEST(LsiServiceShutdownTest, HandleAfterShutdownAnswers503) {
  LsiEngine engine = BuildEngine();
  LsiService service(engine);
  service.Shutdown();
  HttpResponse response = service.Handle(
      Request("POST", "/query", R"({"query": "moon"})"), Soon());
  EXPECT_EQ(response.status, 503);
}

/// Distinct /query bodies over the corpus vocabulary: even ones ask one
/// query, odd ones three (the last out of vocabulary), with top_k 1..4.
std::vector<std::string> DistinctQueryBodies() {
  const std::vector<std::string> words = {
      "moon",   "orbit", "astronauts", "rocket", "stars", "engine", "car",
      "brakes", "road",  "garlic",     "pasta",  "sauce", "bread"};
  std::vector<std::string> pairs;
  for (std::size_t a = 0; a < words.size(); ++a) {
    for (std::size_t b = a + 1; b < words.size(); ++b) {
      pairs.push_back(words[a] + " " + words[b]);
    }
  }
  std::vector<std::string> bodies;
  for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
    const std::string top_k = std::to_string(1 + bodies.size() % 4);
    if (bodies.size() % 2 == 0) {
      bodies.push_back(R"({"query": ")" + pairs[i] + R"(", "top_k": )" +
                       top_k + "}");
    } else {
      bodies.push_back(R"({"queries": [")" + pairs[i] + R"(", ")" +
                       pairs[i + 1] + R"(", "zzzqqq"], "top_k": )" + top_k +
                       "}");
    }
  }
  return bodies;
}

/// Answers every body on a fresh service: serially, or from `threads`
/// callers at once, caller t taking bodies t, t + threads, ...
std::vector<std::string> AnswerAll(const LsiEngine& engine,
                                   const std::vector<std::string>& bodies,
                                   std::size_t threads) {
  LsiService service(engine);
  std::vector<std::string> answers(bodies.size());
  const auto answer_from = [&](std::size_t first, std::size_t stride) {
    for (std::size_t i = first; i < bodies.size(); i += stride) {
      const HttpResponse response =
          service.Handle(Request("POST", "/query", bodies[i]), Soon());
      answers[i] = std::to_string(response.status) + " " + response.body;
    }
  };
  if (threads <= 1) {
    answer_from(0, 1);
  } else {
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < threads; ++t) {
      callers.emplace_back(answer_from, t, threads);
    }
    for (std::thread& caller : callers) caller.join();
  }
  service.Shutdown();
  return answers;
}

TEST(LsiServiceConcurrencyTest, ConcurrentCallersMatchSerialRun) {
  const LsiEngine engine = BuildEngine();
  const std::vector<std::string> bodies = DistinctQueryBodies();
  ASSERT_GE(bodies.size(), 32u);
  par::SetThreads(1);
  const std::vector<std::string> serial = AnswerAll(engine, bodies, 1);
  for (const std::string& answer : serial) {
    ASSERT_EQ(answer.rfind("200 ", 0), 0u) << answer;
  }
  for (const std::size_t par_threads : {1, 8}) {
    par::SetThreads(par_threads);
    const std::vector<std::string> concurrent = AnswerAll(engine, bodies, 8);
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      EXPECT_EQ(concurrent[i], serial[i])
          << "LSI threads " << par_threads << ", body " << bodies[i];
    }
  }
  par::SetThreads(0);
}

}  // namespace
}  // namespace lsi::serve
