#ifndef LSI_SERVE_SERVICE_H_
#define LSI_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "live/live_engine.h"
#include "live/wal.h"
#include "serve/http.h"
#include "serve/query_cache.h"

namespace lsi::serve {

/// Options for the request-handling layer (transport options live in
/// ServerOptions).
struct ServiceOptions {
  QueryCacheOptions cache;
  /// top_k when a request body omits it.
  std::size_t default_top_k = 10;
  /// Requests asking for more than this are rejected with 400.
  std::size_t max_top_k = 1000;
  /// Upper bound on "queries" array length in one /query body.
  std::size_t max_queries_per_request = 64;
  /// Live mode: largest accepted /add // /update document text.
  std::size_t max_document_bytes = 1 << 20;
  /// Live mode: write requests in flight beyond this answer 503.
  std::size_t max_pending_writes = 64;
};

/// The HTTP-facing application layer: routes requests to a loaded
/// LsiEngine through the result cache. Each /query runs on the calling
/// thread against one pinned engine snapshot. Transport-free and
/// deterministic, so tests can drive it with plain HttpRequest values;
/// HttpServer plugs Handle() in as its handler.
///
/// Routes:
///   POST /query    {"query": "...", "top_k": 10}            -> {"hits": [...]}
///                  {"queries": ["...", ...], "top_k": 10}   -> {"results": [[...], ...]}
///   POST /related  {"term": "...", "top_k": 10}             -> {"related": [...]}
///   GET  /healthz  liveness probe, "ok"
///   GET  /statusz  JSON snapshot: engine shape, cache, totals
///   GET  /metrics  Prometheus exposition of the global registry
///
/// Live mode (constructed over a live::LiveEngine) adds write routes;
/// on a read-only service they answer 403:
///   POST /add      {"name": "...", "text": "..."}  -> {"seq", "document", "epoch"}
///   POST /delete   {"name": "..."}                 -> {"seq", "removed", "epoch"}
///   POST /update   {"name": "...", "text": "..."}  -> {"seq", "document", "removed", "epoch"}
/// Queries in live mode run against epoch snapshots (never blocking on
/// writers), and cache keys embed the epoch so a publish invalidates
/// naturally.
class LsiService {
 public:
  LsiService(const core::LsiEngine& engine, ServiceOptions options = {});

  /// Live mode: queries hit live.Snapshot(), writes reach the WAL. The
  /// caller keeps `live` alive for the service's lifetime and remains
  /// responsible for live.Close() at shutdown (Shutdown() flushes but
  /// does not close, so a drained service can still be queried).
  LsiService(live::LiveEngine& live, ServiceOptions options = {});

  /// Handles one parsed request. A /query whose `deadline` has passed
  /// before or after its engine call answers 504 and caches nothing.
  /// Safe to call from many threads at once.
  HttpResponse Handle(const HttpRequest& request,
                      std::chrono::steady_clock::time_point deadline);

  /// Makes every later /query answer 503 and — in live mode — publishes
  /// any pending live-write epoch so every acknowledged write is visible
  /// and durable before the process exits.
  void Shutdown();

  QueryCache& cache() { return cache_; }

 private:
  LsiService(const core::LsiEngine* engine, live::LiveEngine* live,
             ServiceOptions options);

  HttpResponse HandleQuery(const HttpRequest& request,
                           std::chrono::steady_clock::time_point deadline);
  HttpResponse HandleRelated(const HttpRequest& request);
  HttpResponse HandleWrite(live::WalOp op, const HttpRequest& request);
  HttpResponse HandleStatusz();

  using EngineSnapshot = std::shared_ptr<const core::LsiEngine>;

  /// The engine this request should see: the live epoch snapshot, or a
  /// non-owning alias of the fixed engine.
  EngineSnapshot CurrentEngine() const;

  /// Answers the queries of one /query body on one pinned snapshot:
  /// cache hits come from the cache, and the misses go to the engine in
  /// one call. Deadline overruns surface as a synthetic status with code
  /// kFailedPrecondition tagged by message.
  Result<std::vector<std::vector<core::EngineHit>>> RunQuery(
      const std::vector<std::string>& queries, std::size_t top_k,
      std::chrono::steady_clock::time_point deadline);

  const core::LsiEngine* engine_;  ///< Read-only mode; null in live mode.
  live::LiveEngine* live_;         ///< Live mode; null in read-only mode.
  ServiceOptions options_;
  QueryCache cache_;
  std::atomic<bool> shut_down_{false};
  std::atomic<std::size_t> inflight_writes_{0};
  std::chrono::steady_clock::time_point start_time_;
};

/// {"error": "<message>"} with the right content type.
HttpResponse JsonError(int status, std::string_view message);

}  // namespace lsi::serve

#endif  // LSI_SERVE_SERVICE_H_
