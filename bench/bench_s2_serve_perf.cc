// Serving-layer performance: throughput of the pieces on the HTTP hot
// path — request parsing, JSON decode/encode, the sharded result cache,
// and a full LsiService::Handle, cached and uncached. Not a paper
// experiment; tracks regressions in the lsi::serve request path.

#include <chrono>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/engine.h"
#include "serve/http.h"
#include "serve/json.h"
#include "serve/query_cache.h"
#include "serve/service.h"
#include "text/analyzer.h"

namespace {

lsi::core::LsiEngine MakeEngine() {
  lsi::text::Analyzer analyzer;
  lsi::text::Corpus corpus;
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
  lsi::core::LsiEngineOptions options;
  options.rank = 3;
  options.solver = lsi::core::SvdSolver::kJacobi;
  auto engine = lsi::core::LsiEngine::Build(corpus, options);
  if (!engine.ok()) std::abort();
  return std::move(engine).value();
}

void BM_HttpParseRequest(benchmark::State& state) {
  const std::string body = R"({"query": "astronauts", "top_k": 10})";
  const std::string raw =
      "POST /query HTTP/1.1\r\nHost: bench.local\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  for (auto _ : state) {
    lsi::serve::HttpParser parser;
    parser.Feed(raw);
    auto request = parser.TakeRequest();
    benchmark::DoNotOptimize(request);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw.size()));
}

void BM_JsonParse(benchmark::State& state) {
  const std::string text =
      R"({"queries": ["astronauts near the moon", "garlic pasta sauce",)"
      R"( "repairing a car engine", "fresh bread"], "top_k": 10,)"
      R"( "nested": {"a": [1, 2.5, true, null], "b": "x\ny"}})";
  for (auto _ : state) {
    auto doc = lsi::serve::JsonValue::Parse(text);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

void BM_JsonSerializeHits(benchmark::State& state) {
  lsi::serve::JsonValue::Array hits;
  for (int i = 0; i < 10; ++i) {
    lsi::serve::JsonValue::Object fields;
    fields.emplace_back("document",
                        lsi::serve::JsonValue(static_cast<double>(i)));
    fields.emplace_back("name",
                        lsi::serve::JsonValue("doc" + std::to_string(i)));
    fields.emplace_back("score", lsi::serve::JsonValue(1.0 / (1.0 + i)));
    hits.emplace_back(std::move(fields));
  }
  lsi::serve::JsonValue::Object reply;
  reply.emplace_back("hits", lsi::serve::JsonValue(std::move(hits)));
  const lsi::serve::JsonValue doc{std::move(reply)};
  for (auto _ : state) {
    auto text = doc.Serialize();
    benchmark::DoNotOptimize(text);
  }
}

void BM_QueryCacheHit(benchmark::State& state) {
  lsi::serve::QueryCacheOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  lsi::serve::QueryCache cache(options);
  std::vector<lsi::core::EngineHit> hits;
  for (int i = 0; i < 10; ++i) {
    hits.push_back({"doc" + std::to_string(i), static_cast<std::size_t>(i),
                    1.0 / (1.0 + i)});
  }
  for (int i = 0; i < 64; ++i) {
    cache.Put(lsi::serve::QueryCache::Key({{static_cast<std::size_t>(i), 1}},
                                          10),
              hits);
  }
  int i = 0;
  for (auto _ : state) {
    auto hit = cache.Get(lsi::serve::QueryCache::Key(
        {{static_cast<std::size_t>(i++ % 64), 1}}, 10));
    benchmark::DoNotOptimize(hit);
  }
}

void BM_ServiceHandleCachedQuery(benchmark::State& state) {
  auto engine = MakeEngine();
  lsi::serve::LsiService service(engine);
  lsi::serve::HttpRequest request;
  request.method = "POST";
  request.target = "/query";
  request.version = "HTTP/1.1";
  request.body = R"({"query": "astronauts near the moon", "top_k": 3})";
  request.keep_alive = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  // Warm the cache so the loop measures the hit path end to end.
  benchmark::DoNotOptimize(service.Handle(request, deadline));
  for (auto _ : state) {
    auto response = service.Handle(request, deadline);
    benchmark::DoNotOptimize(response);
  }
  service.Shutdown();
}

void BM_ServiceHandleUncachedQuery(benchmark::State& state) {
  auto engine = MakeEngine();
  lsi::serve::ServiceOptions options;
  options.cache.max_bytes = 0;  // Every Handle misses and calls the engine.
  lsi::serve::LsiService service(engine, options);
  const std::vector<std::string> bodies = {
      R"({"query": "astronauts near the moon", "top_k": 3})",
      R"({"query": "garlic pasta sauce", "top_k": 3})",
      R"({"query": "repairing a car engine", "top_k": 3})",
      R"({"query": "moon orbit", "top_k": 3})"};
  lsi::serve::HttpRequest request;
  request.method = "POST";
  request.target = "/query";
  request.version = "HTTP/1.1";
  request.keep_alive = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  std::size_t i = 0;
  for (auto _ : state) {
    request.body = bodies[i++ % bodies.size()];
    auto response = service.Handle(request, deadline);
    benchmark::DoNotOptimize(response);
  }
  service.Shutdown();
}

}  // namespace

BENCHMARK(BM_HttpParseRequest);
BENCHMARK(BM_JsonParse);
BENCHMARK(BM_JsonSerializeHits);
BENCHMARK(BM_QueryCacheHit)->Arg(1)->Arg(8);
BENCHMARK(BM_ServiceHandleCachedQuery);
BENCHMARK(BM_ServiceHandleUncachedQuery);

BENCHMARK_MAIN();
