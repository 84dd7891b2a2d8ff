#ifndef LSI_SERVE_SERVICE_H_
#define LSI_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "live/live_engine.h"
#include "live/wal.h"
#include "serve/http.h"
#include "serve/json.h"

namespace lsi::serve {

/// Live mode: an /add or /update whose text is longer answers 400.
inline constexpr std::size_t kMaxDocumentBytes = 1 << 20;

/// The HTTP-facing application layer: routes requests to a loaded
/// LsiEngine. Each /query runs on the calling thread against one pinned
/// engine snapshot; results are not cached here (a caching
/// shard::Router in front keeps the one result cache). Transport-free and
/// deterministic, so tests can drive it with plain HttpRequest values;
/// HttpServer plugs Handle() in as its handler.
///
/// Routes:
///   POST /query    {"query": "...", "top_k": 10}            -> {"hits": [...]}
///                  {"queries": ["...", ...], "top_k": 10}   -> {"results": [[...], ...]}
///   POST /related  {"term": "...", "top_k": 10}             -> {"related": [...]}
///   GET  /healthz  liveness probe, "ok"
///   GET  /statusz  JSON snapshot: engine shape, totals
///   GET  /metrics  Prometheus exposition of the global registry
///
/// Live mode (constructed over a live::LiveEngine) adds write routes;
/// on a read-only service they answer 403:
///   POST /add      {"name": "...", "text": "..."}  -> {"seq", "document", "epoch"}
///   POST /delete   {"name": "..."}                 -> {"seq", "removed", "epoch"}
///   POST /update   {"name": "...", "text": "..."}  -> {"seq", "document", "removed", "epoch"}
/// Queries in live mode run against epoch snapshots (never blocking on
/// writers). Live /query replies carry "X-Lsi-Epoch: <n>", which tells
/// a caching router not to keep them.
class LsiService {
 public:
  explicit LsiService(const core::LsiEngine& engine);

  /// Live mode: queries hit live.Snapshot(), writes reach the WAL. The
  /// caller keeps `live` alive for the service's lifetime and remains
  /// responsible for live.Close() at shutdown (Shutdown() flushes but
  /// does not close, so a drained service can still be queried).
  explicit LsiService(live::LiveEngine& live);

  /// Handles one parsed request. A /query whose `deadline` has passed
  /// before or after its engine call answers 504. Safe to call from many
  /// threads at once.
  HttpResponse Handle(const HttpRequest& request,
                      std::chrono::steady_clock::time_point deadline);

  /// Makes every later /query answer 503 and — in live mode — publishes
  /// any pending live-write epoch so every acknowledged write is visible
  /// and durable before the process exits.
  void Shutdown();

 private:
  LsiService(const core::LsiEngine* engine, live::LiveEngine* live);

  HttpResponse HandleQuery(const HttpRequest& request,
                           std::chrono::steady_clock::time_point deadline);
  HttpResponse HandleRelated(const HttpRequest& request);
  HttpResponse HandleWrite(live::WalOp op, const HttpRequest& request);
  HttpResponse HandleStatusz();

  using EngineSnapshot = std::shared_ptr<const core::LsiEngine>;

  /// The engine this request should see: the live epoch snapshot, or a
  /// non-owning alias of the fixed engine.
  EngineSnapshot CurrentEngine() const;

  const core::LsiEngine* engine_;  ///< Read-only mode; null in live mode.
  live::LiveEngine* live_;         ///< Live mode; null in read-only mode.
  std::atomic<bool> shut_down_{false};
  std::atomic<std::size_t> inflight_writes_{0};
  std::chrono::steady_clock::time_point start_time_;
};

// The /query wire contract, shared by LsiService and shard::Router so a
// router accepts exactly the bodies its backends accept and answers in
// the same bytes.

/// top_k when a /query or /related body omits it.
inline constexpr std::size_t kDefaultTopK = 10;
/// Bodies asking for a larger top_k are rejected with 400.
inline constexpr std::size_t kMaxTopK = 1000;
/// Upper bound on the "queries" array length of one /query body.
inline constexpr std::size_t kMaxQueriesPerRequest = 64;

/// A validated /query body.
struct QueryBody {
  std::vector<std::string> queries;
  /// The body used "queries", so the reply is {"results": [...]}, not
  /// {"hits": [...]}.
  bool batch = false;
  std::size_t top_k = kDefaultTopK;
};

/// Parses a /query body: a JSON object with exactly one of "query" (a
/// string) or "queries" (1 to kMaxQueriesPerRequest strings), and an
/// optional integer "top_k" in [1, kMaxTopK]. On a bad body the error
/// message is what the 400 reply says.
Result<QueryBody> ParseQueryBody(std::string_view text);

/// The canonical body for `body`: exactly the fields ParseQueryBody
/// reads, top_k always present.
std::string SerializeQueryBody(const QueryBody& body);

/// The /query reply object for one hit list per query: {"hits": [...]}
/// with `batch` unset (one list), else {"results": [[...], ...]}. Each
/// hit is {"document", "name", "score"}, in that order.
JsonValue::Object QueryReply(
    const std::vector<std::vector<core::EngineHit>>& results, bool batch);

/// The inverse of QueryReply: the hit lists of a serialized reply to
/// `request`, one per query. Fails on any other shape.
Result<std::vector<std::vector<core::EngineHit>>> ParseQueryReply(
    std::string_view text, const QueryBody& request);

/// {"error": "<message>"} with the right content type.
HttpResponse JsonError(int status, std::string_view message);

/// A 200 with a JSON body.
HttpResponse JsonOk(std::string body);

/// 503 with "Retry-After: 1".
HttpResponse RetryLater(std::string_view message);

/// 405 naming the allowed method.
HttpResponse MethodNotAllowed(const char* allow);

}  // namespace lsi::serve

#endif  // LSI_SERVE_SERVICE_H_
