#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/engine.h"
#include "live/live_engine.h"
#include "serve/json.h"
#include "serve/service.h"
#include "text/analyzer.h"

namespace lsi::serve {
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
  corpus.AddDocument("food1",
                     analyzer.Analyze("simmer the garlic and tomatoes into "
                                      "a sauce for the fresh pasta"));
  return corpus;
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

/// A live service over a fresh WAL, torn down in order.
class LiveRoutesTest : public ::testing::Test {
 protected:
  LiveRoutesTest() {
    fault::FaultRegistry::Global().DisarmAll();
    // ctest runs each test as its own process, in parallel: the WAL path
    // must be unique per test or concurrent fixtures corrupt each other.
    const std::string wal = TempPath(
        (std::string("live_routes_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".log")
            .c_str());
    std::remove(wal.c_str());
    live::LiveOptions options;
    options.engine.rank = 3;
    options.engine.solver = core::SvdSolver::kJacobi;
    options.background_refresh = false;
    auto live = live::LiveEngine::Open(ThreeTopicCorpus(), wal, options);
    EXPECT_TRUE(live.ok()) << live.status().ToString();
    live_ = std::move(live).value();
    service_ = std::make_unique<LsiService>(*live_);
  }

  ~LiveRoutesTest() override {
    service_->Shutdown();
    service_.reset();
    EXPECT_TRUE(live_->Close().ok());
  }

  HttpResponse Handle(const HttpRequest& request) {
    return service_->Handle(request, Soon());
  }

  std::unique_ptr<live::LiveEngine> live_;
  std::unique_ptr<LsiService> service_;
};

TEST_F(LiveRoutesTest, AddReturnsReceiptAndBecomesQueryable) {
  HttpResponse added = Handle(Request(
      "POST", "/add",
      R"({"name": "space3", "text": "a telescope watched the moon orbit"})"));
  ASSERT_EQ(added.status, 200) << added.body;
  auto receipt = JsonValue::Parse(added.body);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->Find("seq")->number(), 1.0);
  EXPECT_NE(receipt->Find("document"), nullptr);
  EXPECT_GE(receipt->Find("epoch")->number(), 1.0);

  HttpResponse queried = Handle(Request(
      "POST", "/query", R"({"query": "telescope moon orbit", "top_k": 5})"));
  ASSERT_EQ(queried.status, 200);
  EXPECT_NE(queried.body.find("space3"), std::string::npos) << queried.body;
}

TEST_F(LiveRoutesTest, DeleteRemovesAndReportsMissingAs404) {
  HttpResponse deleted =
      Handle(Request("POST", "/delete", R"({"name": "food1"})"));
  ASSERT_EQ(deleted.status, 200) << deleted.body;
  auto receipt = JsonValue::Parse(deleted.body);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->Find("removed")->number(), 1.0);

  HttpResponse missing =
      Handle(Request("POST", "/delete", R"({"name": "no-such"})"));
  EXPECT_EQ(missing.status, 404);
}

TEST_F(LiveRoutesTest, UpdateUpsertsAndReplaces) {
  HttpResponse upserted = Handle(Request(
      "POST", "/update", R"({"name": "new1", "text": "fresh content"})"));
  ASSERT_EQ(upserted.status, 200) << upserted.body;
  auto first = JsonValue::Parse(upserted.body);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Find("removed")->number(), 0.0);

  HttpResponse replaced = Handle(Request(
      "POST", "/update", R"({"name": "new1", "text": "newer content"})"));
  ASSERT_EQ(replaced.status, 200);
  auto second = JsonValue::Parse(replaced.body);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->Find("removed")->number(), 1.0);
}

TEST_F(LiveRoutesTest, MalformedWriteBodiesGet400) {
  EXPECT_EQ(Handle(Request("POST", "/add", "not json")).status, 400);
  EXPECT_EQ(Handle(Request("POST", "/add", R"({"text": "x"})")).status, 400);
  EXPECT_EQ(Handle(Request("POST", "/add", R"({"name": ""})")).status, 400);
  EXPECT_EQ(Handle(Request("POST", "/add", R"({"name": "a"})")).status, 400);
  EXPECT_EQ(
      Handle(Request("POST", "/delete", R"({"name": "a", "text": "b"})"))
          .status,
      400);
  EXPECT_EQ(Handle(Request("GET", "/add")).status, 405);
}

TEST_F(LiveRoutesTest, OversizedDocumentIs400) {
  const std::string text(kMaxDocumentBytes + 1, 'x');
  HttpResponse response = Handle(Request(
      "POST", "/add", R"({"name": "big", "text": ")" + text + R"("})"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("max_document_bytes"), std::string::npos);
  EXPECT_EQ(live_->stats().wal_records, 0u);
}

TEST_F(LiveRoutesTest, RouteFaultPointsAnswer503WithRetryAfter) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  const struct {
    const char* point;
    const char* route;
    const char* body;
  } cases[] = {
      {"serve.add.route", "/add", R"({"name": "a", "text": "b"})"},
      {"serve.delete.route", "/delete", R"({"name": "space1"})"},
      {"serve.update.route", "/update", R"({"name": "a", "text": "b"})"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.point);
    ASSERT_TRUE(
        faults.ArmFromString(std::string(c.point) + "=once@1").ok());
    HttpResponse faulted = Handle(Request("POST", c.route, c.body));
    EXPECT_EQ(faulted.status, 503);
    bool has_retry_after = false;
    for (const auto& [key, value] : faulted.extra_headers) {
      if (key == "Retry-After") has_retry_after = true;
    }
    EXPECT_TRUE(has_retry_after);
    faults.DisarmAll();
    // The refused write was never acknowledged: nothing hit the WAL.
  }
  EXPECT_EQ(live_->stats().wal_records, 0u);
}

TEST_F(LiveRoutesTest, WriteFailureAfterWalFaultIs500AndUnacked) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  ASSERT_TRUE(faults.ArmFromString("live.wal.sync=once@1").ok());
  HttpResponse response = Handle(
      Request("POST", "/add", R"({"name": "lost", "text": "write"})"));
  faults.DisarmAll();
  EXPECT_EQ(response.status, 500);
  EXPECT_EQ(live_->stats().wal_records, 0u);
}

TEST_F(LiveRoutesTest, StatuszIncludesLiveSection) {
  ASSERT_EQ(
      Handle(Request("POST", "/add", R"({"name": "s", "text": "moon"})"))
          .status,
      200);
  HttpResponse statusz = Handle(Request("GET", "/statusz"));
  ASSERT_EQ(statusz.status, 200);
  auto parsed = JsonValue::Parse(statusz.body);
  ASSERT_TRUE(parsed.ok()) << statusz.body;
  const JsonValue* live = parsed->Find("live");
  ASSERT_NE(live, nullptr) << statusz.body;
  EXPECT_GE(live->Find("epoch")->number(), 1.0);
  EXPECT_EQ(live->Find("wal_records")->number(), 1.0);
  EXPECT_EQ(live->Find("documents")->number(), 5.0);
}

TEST_F(LiveRoutesTest, QueryCacheKeysRotateWithEpoch) {
  // Same query before and after a write must see the write.
  // The new document reuses base vocabulary: fold-in cannot learn new
  // terms, so an all-OOV doc would be a zero vector and never match.
  HttpRequest probe =
      Request("POST", "/query", R"({"query": "moon orbit", "top_k": 5})");
  HttpResponse before = Handle(probe);
  ASSERT_EQ(before.status, 200);
  EXPECT_EQ(before.body.find("comet1"), std::string::npos);
  ASSERT_EQ(
      Handle(Request(
                 "POST", "/add",
                 R"({"name": "comet1", "text": "the moon orbit watched"})"))
          .status,
      200);
  HttpResponse after = Handle(probe);
  ASSERT_EQ(after.status, 200);
  EXPECT_NE(after.body.find("comet1"), std::string::npos) << after.body;
}

// Live replies name the epoch they were answered at, so a caching
// router can tell they will change with the next write.
TEST_F(LiveRoutesTest, QueryRepliesCarryTheirEpoch) {
  auto epoch_of = [](const HttpResponse& response) -> std::string {
    for (const auto& [name, value] : response.extra_headers) {
      if (name == "X-Lsi-Epoch") return value;
    }
    return "";
  };
  HttpResponse before = Handle(
      Request("POST", "/query", R"({"query": "moon orbit", "top_k": 3})"));
  ASSERT_EQ(before.status, 200);
  EXPECT_EQ(epoch_of(before), std::to_string(live_->epoch()));
  ASSERT_EQ(Handle(Request("POST", "/add",
                           R"({"name": "e1", "text": "moon orbit"})"))
                .status,
            200);
  HttpResponse after = Handle(Request(
      "POST", "/query", R"({"queries": ["moon orbit"], "top_k": 3})"));
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(epoch_of(after), std::to_string(live_->epoch()));
  EXPECT_NE(epoch_of(after), epoch_of(before));
}

TEST_F(LiveRoutesTest, ShutdownFlushesPendingEpoch) {
  // With batched publishing, an acknowledged write can be invisible
  // until Shutdown() flushes it — the drain guarantee.
  const std::string wal = TempPath("live_routes_flush.log");
  std::remove(wal.c_str());
  live::LiveOptions options;
  options.engine.rank = 3;
  options.engine.solver = core::SvdSolver::kJacobi;
  options.background_refresh = false;
  options.publish_every = 100;
  auto live = live::LiveEngine::Open(ThreeTopicCorpus(), wal, options);
  ASSERT_TRUE(live.ok());
  auto service = std::make_unique<LsiService>(**live);

  ASSERT_EQ(service
                ->Handle(Request("POST", "/add",
                                 R"({"name": "p1", "text": "pending doc"})"),
                         Soon())
                .status,
            200);
  EXPECT_EQ((*live)->stats().pending_writes, 1u);
  EXPECT_EQ((*live)->Snapshot()->NumDocuments(), 4u);

  service->Shutdown();
  EXPECT_EQ((*live)->stats().pending_writes, 0u);
  EXPECT_EQ((*live)->Snapshot()->NumDocuments(), 5u);
  service.reset();
  ASSERT_TRUE((*live)->Close().ok());
}

TEST(LiveRoutesReadOnlyTest, WritesAgainstReadOnlyServiceAre403) {
  core::LsiEngineOptions options;
  options.rank = 3;
  options.solver = core::SvdSolver::kJacobi;
  auto engine = core::LsiEngine::Build(ThreeTopicCorpus(), options);
  ASSERT_TRUE(engine.ok());
  LsiService service(engine.value());
  for (const char* route : {"/add", "/delete", "/update"}) {
    HttpResponse response = service.Handle(
        Request("POST", route, R"({"name": "a", "text": "b"})"), Soon());
    EXPECT_EQ(response.status, 403) << route;
  }
  service.Shutdown();
}

// A fixed engine's answers never change, so its replies carry no epoch
// and a caching router keeps them.
TEST(LiveRoutesReadOnlyTest, QueryRepliesCarryNoEpoch) {
  core::LsiEngineOptions options;
  options.rank = 3;
  options.solver = core::SvdSolver::kJacobi;
  auto engine = core::LsiEngine::Build(ThreeTopicCorpus(), options);
  ASSERT_TRUE(engine.ok());
  LsiService service(engine.value());
  HttpResponse response = service.Handle(
      Request("POST", "/query", R"({"query": "moon orbit"})"), Soon());
  ASSERT_EQ(response.status, 200);
  for (const auto& header : response.extra_headers) {
    EXPECT_NE(header.first, "X-Lsi-Epoch");
  }
}

}  // namespace
}  // namespace lsi::serve
