#include "serve/service.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "dbg/lock_tracker.h"
#include "linalg/simd/simd.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "par/par.h"
#include "serve/json.h"

namespace lsi::serve {
namespace {

// Live mode: write requests in flight beyond this answer 503.
constexpr std::size_t kMaxPendingWrites = 64;

/// Maps an engine Status to the HTTP response for it.
HttpResponse StatusToResponse(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return JsonError(400, status.message());
    case StatusCode::kNotFound:
      return JsonError(404, status.message());
    default:
      return JsonError(500, status.message());
  }
}

JsonValue HitsToJson(const std::vector<core::EngineHit>& hits) {
  JsonValue::Array items;
  items.reserve(hits.size());
  for (const core::EngineHit& hit : hits) {
    JsonValue::Object fields;
    fields.emplace_back("document",
                        JsonValue(static_cast<double>(hit.document)));
    fields.emplace_back("name", JsonValue(hit.document_name));
    fields.emplace_back("score", JsonValue(hit.score));
    items.emplace_back(std::move(fields));
  }
  return JsonValue(std::move(items));
}

/// Parses one hits array back into EngineHits (the inverse of
/// HitsToJson). False on shape mismatch.
bool ParseHits(const JsonValue& array, std::vector<core::EngineHit>* out) {
  if (!array.is_array()) return false;
  out->reserve(array.array().size());
  for (const JsonValue& item : array.array()) {
    const JsonValue* document = item.Find("document");
    const JsonValue* name = item.Find("name");
    const JsonValue* score = item.Find("score");
    if (document == nullptr || !document->is_number() || name == nullptr ||
        !name->is_string() || score == nullptr || !score->is_number()) {
      return false;
    }
    core::EngineHit hit;
    hit.document = static_cast<std::size_t>(document->number());
    hit.document_name = name->string_value();
    hit.score = score->number();
    out->push_back(std::move(hit));
  }
  return true;
}

/// Reads the optional top_k of a parsed body: kDefaultTopK when absent,
/// InvalidArgument unless it is an integer in [1, kMaxTopK].
Result<std::size_t> ExtractTopK(const JsonValue& body) {
  const JsonValue* field = body.Find("top_k");
  if (field == nullptr) return kDefaultTopK;
  const double raw = field->number();
  if (!field->is_number() || raw < 1.0 || raw != std::floor(raw) ||
      raw > static_cast<double>(kMaxTopK)) {
    return Status::InvalidArgument("top_k must be an integer in [1, " +
                                   std::to_string(kMaxTopK) + "]");
  }
  return static_cast<std::size_t>(raw);
}

/// HTTP mapping for live-write Statuses. FailedPrecondition means the
/// engine is draining/closed — retryable against the next incarnation —
/// so it maps to 503 rather than the generic 500.
HttpResponse WriteStatusToResponse(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return JsonError(400, status.message());
    case StatusCode::kNotFound:
      return JsonError(404, status.message());
    case StatusCode::kFailedPrecondition:
      return RetryLater(status.message());
    default:
      return JsonError(500, status.message());
  }
}

/// lsi.serve.live.<route>.{requests,rejected,errors} for one write route.
struct WriteRouteCounters {
  obs::Counter& requests;
  obs::Counter& rejected;
  obs::Counter& errors;
};

WriteRouteCounters ResolveWriteRouteCounters(const std::string& route) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string prefix = "lsi.serve.live." + route;
  return {registry.GetCounter(prefix + ".requests"),
          registry.GetCounter(prefix + ".rejected"),
          registry.GetCounter(prefix + ".errors")};
}

/// The counters of `op`'s route, resolved once per process.
const WriteRouteCounters& WriteCounters(live::WalOp op) {
  // Indexed by WalOp's wire value: kAdd 0, kDelete 1, kUpdate 2.
  static const std::array<WriteRouteCounters, 3> counters = {
      ResolveWriteRouteCounters("add"), ResolveWriteRouteCounters("delete"),
      ResolveWriteRouteCounters("update")};
  return counters[static_cast<std::size_t>(op)];
}

/// Decrements the in-flight write gauge on every exit path.
class ScopedInflight {
 public:
  explicit ScopedInflight(std::atomic<std::size_t>& count) : count_(count) {}
  ~ScopedInflight() { count_.fetch_sub(1, std::memory_order_acq_rel); }
  ScopedInflight(const ScopedInflight&) = delete;
  ScopedInflight& operator=(const ScopedInflight&) = delete;

 private:
  std::atomic<std::size_t>& count_;
};

}  // namespace

Result<QueryBody> ParseQueryBody(std::string_view text) {
  auto body = JsonValue::Parse(text);
  if (!body.ok()) return body.status();
  if (!body->is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  auto top_k = ExtractTopK(*body);
  if (!top_k.ok()) return top_k.status();
  const JsonValue* single = body->Find("query");
  const JsonValue* multi = body->Find("queries");
  if ((single == nullptr) == (multi == nullptr)) {
    return Status::InvalidArgument(
        "body must have exactly one of query | queries");
  }
  QueryBody parsed;
  parsed.top_k = *top_k;
  if (single != nullptr) {
    if (!single->is_string()) {
      return Status::InvalidArgument("query must be a string");
    }
    parsed.queries.push_back(single->string_value());
    return parsed;
  }
  if (!multi->is_array()) {
    return Status::InvalidArgument("queries must be an array of strings");
  }
  const JsonValue::Array& items = multi->array();
  if (items.empty() || items.size() > kMaxQueriesPerRequest) {
    return Status::InvalidArgument("queries length must be in [1, " +
                                   std::to_string(kMaxQueriesPerRequest) +
                                   "]");
  }
  parsed.batch = true;
  parsed.queries.reserve(items.size());
  for (const JsonValue& q : items) {
    if (!q.is_string()) {
      return Status::InvalidArgument("queries must be an array of strings");
    }
    parsed.queries.push_back(q.string_value());
  }
  return parsed;
}

std::string SerializeQueryBody(const QueryBody& body) {
  JsonValue::Object fields;
  if (body.batch) {
    JsonValue::Array queries(body.queries.begin(), body.queries.end());
    fields.emplace_back("queries", JsonValue(std::move(queries)));
  } else {
    fields.emplace_back("query", JsonValue(body.queries.front()));
  }
  fields.emplace_back("top_k", JsonValue(static_cast<double>(body.top_k)));
  return JsonValue(std::move(fields)).Serialize();
}

JsonValue::Object QueryReply(
    const std::vector<std::vector<core::EngineHit>>& results, bool batch) {
  JsonValue::Object reply;
  if (!batch) {
    reply.emplace_back("hits", HitsToJson(results.front()));
    return reply;
  }
  JsonValue::Array rendered;
  rendered.reserve(results.size());
  for (const auto& hits : results) rendered.push_back(HitsToJson(hits));
  reply.emplace_back("results", JsonValue(std::move(rendered)));
  return reply;
}

Result<std::vector<std::vector<core::EngineHit>>> ParseQueryReply(
    std::string_view text, const QueryBody& request) {
  auto reply = JsonValue::Parse(text);
  if (!reply.ok()) return reply.status();
  auto bad = [] {
    return Status::InvalidArgument("serve: malformed /query reply");
  };
  const std::size_t num_queries = request.queries.size();
  std::vector<std::vector<core::EngineHit>> lists(num_queries);
  if (!request.batch) {
    const JsonValue* hits = reply->Find("hits");
    if (hits == nullptr || !ParseHits(*hits, &lists[0])) {
      return bad();
    }
    return lists;
  }
  const JsonValue* results = reply->Find("results");
  if (results == nullptr || !results->is_array() ||
      results->array().size() != num_queries) {
    return bad();
  }
  for (std::size_t q = 0; q < num_queries; ++q) {
    if (!ParseHits(results->array()[q], &lists[q])) return bad();
  }
  return lists;
}

HttpResponse JsonError(int status, std::string_view message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json; charset=utf-8";
  response.body = "{\"error\":" + JsonQuote(message) + "}";
  return response;
}

HttpResponse JsonOk(std::string body) {
  HttpResponse response;
  response.content_type = "application/json; charset=utf-8";
  response.body = std::move(body);
  return response;
}

HttpResponse RetryLater(std::string_view message) {
  HttpResponse response = JsonError(503, message);
  response.extra_headers.emplace_back("Retry-After", "1");
  return response;
}

HttpResponse MethodNotAllowed(const char* allow) {
  HttpResponse response = JsonError(405, "method not allowed");
  response.extra_headers.emplace_back("Allow", allow);
  return response;
}

LsiService::LsiService(const core::LsiEngine* engine, live::LiveEngine* live)
    : engine_(engine),
      live_(live),
      start_time_(std::chrono::steady_clock::now()) {}

LsiService::LsiService(const core::LsiEngine& engine)
    : LsiService(&engine, nullptr) {}

LsiService::LsiService(live::LiveEngine& live) : LsiService(nullptr, &live) {}

void LsiService::Shutdown() {
  shut_down_.store(true, std::memory_order_release);
  // Drain guarantee: acknowledged writes are already durable in the
  // WAL; publishing the pending epoch makes them visible too, so a
  // health check after drain observes everything that was acked.
  if (live_ != nullptr) (void)live_->Flush();
}

LsiService::EngineSnapshot LsiService::CurrentEngine() const {
  if (live_ != nullptr) return live_->Snapshot();
  // Non-owning alias: the caller keeps the fixed engine alive.
  return EngineSnapshot(EngineSnapshot(), engine_);
}

HttpResponse LsiService::Handle(
    const HttpRequest& request,
    std::chrono::steady_clock::time_point deadline) {
  std::string path = request.target;
  if (const std::size_t q = path.find('?'); q != std::string::npos) {
    path.resize(q);  // Query strings are accepted and ignored.
  }

  if (path == "/healthz") {
    if (request.method != "GET" && request.method != "HEAD") {
      return MethodNotAllowed("GET");
    }
    // Shard-drill kill switch: a backend whose health endpoint is
    // faulted reads as down to the router's breaker without the process
    // actually dying — how the torture suite drives eject/re-probe.
    if (LSI_FAULT_POINT("shard.healthz.backend")) {
      return RetryLater("healthz faulted");
    }
    HttpResponse response;
    response.body = "ok\n";
    return response;
  }
  if (path == "/metrics") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    HttpResponse response;
    response.content_type = obs::ContentTypeFor(obs::ExportFormat::kPrometheus);
    response.body = obs::ExportPrometheus();
    return response;
  }
  if (path == "/statusz") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    return HandleStatusz();
  }
  if (path == "/query") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    // Shard-drill kill switch for the query path, the backend-side twin
    // of the router's shard.query.route point: a faulted backend sheds
    // queries as overload while staying healthy on /healthz.
    if (LSI_FAULT_POINT("shard.query.backend")) {
      return RetryLater("query backend faulted");
    }
    return HandleQuery(request, deadline);
  }
  if (path == "/related") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return HandleRelated(request);
  }
  if (path == "/add") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return HandleWrite(live::WalOp::kAdd, request);
  }
  if (path == "/delete") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return HandleWrite(live::WalOp::kDelete, request);
  }
  if (path == "/update") {
    if (request.method != "POST") return MethodNotAllowed("POST");
    return HandleWrite(live::WalOp::kUpdate, request);
  }
  return JsonError(404, "no such route: " + path);
}

HttpResponse LsiService::HandleWrite(live::WalOp op,
                                     const HttpRequest& request) {
  const WriteRouteCounters& counters = WriteCounters(op);
  counters.requests.Increment();
  if (live_ == nullptr) {
    return JsonError(403, "server is read-only; restart `lsi_tool serve` "
                          "with --live to enable writes");
  }

  // Per-route kill points, exercised by the fault-torture job: a faulted
  // route refuses before touching the WAL, exactly like overload.
  bool faulted = false;
  switch (op) {
    case live::WalOp::kAdd:
      faulted = LSI_FAULT_POINT("serve.add.route");
      break;
    case live::WalOp::kDelete:
      faulted = LSI_FAULT_POINT("serve.delete.route");
      break;
    case live::WalOp::kUpdate:
      faulted = LSI_FAULT_POINT("serve.update.route");
      break;
  }
  if (faulted ||
      inflight_writes_.fetch_add(1, std::memory_order_acq_rel) >=
          kMaxPendingWrites) {
    if (!faulted) inflight_writes_.fetch_sub(1, std::memory_order_acq_rel);
    counters.rejected.Increment();
    return RetryLater("write backlog full, retry later");
  }
  ScopedInflight inflight(inflight_writes_);

  auto body = JsonValue::Parse(request.body);
  if (!body.ok()) return JsonError(400, body.status().message());
  if (!body->is_object()) {
    return JsonError(400, "request body must be a JSON object");
  }
  const JsonValue* name = body->Find("name");
  if (name == nullptr || !name->is_string() || name->string_value().empty()) {
    return JsonError(400, "body must have a non-empty string name");
  }
  const JsonValue* text = body->Find("text");
  if (op == live::WalOp::kDelete) {
    if (text != nullptr) {
      return JsonError(400, "delete takes only a name");
    }
  } else {
    if (text == nullptr || !text->is_string()) {
      return JsonError(400, "body must have a string text");
    }
    if (text->string_value().size() > kMaxDocumentBytes) {
      return JsonError(400, "text exceeds max_document_bytes (" +
                                std::to_string(kMaxDocumentBytes) + ")");
    }
  }

  Result<live::WriteReceipt> receipt = std::invoke([&] {
    switch (op) {
      case live::WalOp::kAdd:
        return live_->Add(name->string_value(), text->string_value());
      case live::WalOp::kDelete:
        return live_->Delete(name->string_value());
      case live::WalOp::kUpdate:
        return live_->Update(name->string_value(), text->string_value());
    }
    return Result<live::WriteReceipt>(
        Status::Internal("serve: unknown write op"));
  });
  if (!receipt.ok()) {
    counters.errors.Increment();
    return WriteStatusToResponse(receipt.status());
  }

  JsonValue::Object reply;
  reply.emplace_back("seq", JsonValue(static_cast<double>(receipt->seq)));
  if (op != live::WalOp::kDelete) {
    reply.emplace_back("document",
                       JsonValue(static_cast<double>(receipt->document)));
  }
  if (op != live::WalOp::kAdd) {
    reply.emplace_back("removed",
                       JsonValue(static_cast<double>(receipt->removed)));
  }
  reply.emplace_back("epoch", JsonValue(static_cast<double>(receipt->epoch)));
  return JsonOk(JsonValue(std::move(reply)).Serialize());
}

HttpResponse LsiService::HandleQuery(
    const HttpRequest& request,
    std::chrono::steady_clock::time_point deadline) {
  if (shut_down_.load(std::memory_order_acquire)) {
    return RetryLater("shutting down, retry later");
  }
  auto body = ParseQueryBody(request.body);
  if (!body.ok()) return JsonError(400, body.status().message());

  // One snapshot answers the whole request. Live mode reads the epoch
  // *before* pinning: LiveEngine swaps in a new snapshot before it bumps
  // the epoch, so a reply never names an epoch newer than the engine
  // that answered it.
  const std::uint64_t epoch = live_ != nullptr ? live_->epoch() : 0;
  const EngineSnapshot engine = CurrentEngine();
  if (std::chrono::steady_clock::now() >= deadline) {
    return JsonError(504, "deadline exceeded");
  }
  // A lone query calls Query; QueryBatch equals it element-wise, and its
  // first failing query decides the status.
  std::vector<std::vector<core::EngineHit>> results;
  if (body->queries.size() == 1) {
    auto hits = engine->Query(body->queries.front(), body->top_k);
    if (!hits.ok()) return StatusToResponse(hits.status());
    results.push_back(std::move(hits).value());
  } else {
    auto batch = engine->QueryBatch(body->queries, body->top_k);
    if (!batch.ok()) return StatusToResponse(batch.status());
    results = std::move(batch).value();
  }
  // Nobody waits for a late answer.
  if (std::chrono::steady_clock::now() >= deadline) {
    return JsonError(504, "deadline exceeded");
  }
  HttpResponse response =
      JsonOk(JsonValue(QueryReply(results, body->batch)).Serialize());
  // Live replies name their epoch, so a caching router can tell that
  // they will change with the next write.
  if (live_ != nullptr) {
    response.extra_headers.emplace_back("X-Lsi-Epoch", std::to_string(epoch));
  }
  return response;
}

HttpResponse LsiService::HandleRelated(const HttpRequest& request) {
  auto body = JsonValue::Parse(request.body);
  if (!body.ok()) return JsonError(400, body.status().message());
  if (!body->is_object()) {
    return JsonError(400, "request body must be a JSON object");
  }
  const JsonValue* term = body->Find("term");
  if (term == nullptr || !term->is_string()) {
    return JsonError(400, "body must have a string term");
  }
  auto top_k = ExtractTopK(*body);
  if (!top_k.ok()) return JsonError(400, top_k.status().message());
  auto related = CurrentEngine()->RelatedTerms(term->string_value(), *top_k);
  if (!related.ok()) return StatusToResponse(related.status());
  JsonValue::Array items;
  items.reserve(related->size());
  for (const core::RelatedTerm& r : related.value()) {
    JsonValue::Object fields;
    fields.emplace_back("term", JsonValue(r.term));
    fields.emplace_back("score", JsonValue(r.score));
    items.emplace_back(std::move(fields));
  }
  JsonValue::Object reply;
  reply.emplace_back("related", JsonValue(std::move(items)));
  return JsonOk(JsonValue(std::move(reply)).Serialize());
}

HttpResponse LsiService::HandleStatusz() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();

  const EngineSnapshot snapshot = CurrentEngine();
  JsonValue::Object engine;
  engine.emplace_back(
      "documents", JsonValue(static_cast<double>(snapshot->NumDocuments())));
  engine.emplace_back("terms",
                      JsonValue(static_cast<double>(snapshot->NumTerms())));
  engine.emplace_back("rank",
                      JsonValue(static_cast<double>(snapshot->rank())));

  JsonValue::Object requests;
  for (const char* klass : {"2xx", "4xx", "5xx"}) {
    requests.emplace_back(
        klass, JsonValue(static_cast<double>(
                   registry
                       .GetCounter(std::string("lsi.serve.requests.") + klass)
                       .value())));
  }

  JsonValue::Object status;
  status.emplace_back("uptime_s", JsonValue(uptime_s));
  status.emplace_back("threads",
                      JsonValue(static_cast<double>(par::Threads())));
  status.emplace_back(
      "simd", JsonValue(std::string(
                  linalg::simd::PathName(linalg::simd::ActivePath()))));
  {
    JsonValue::Object dbg_block;
    dbg_block.emplace_back("deadlock_detect",
                           JsonValue(dbg::DeadlockDetectEnabled()));
    dbg_block.emplace_back(
        "lock_violations",
        JsonValue(static_cast<double>(dbg::ViolationCount())));
    status.emplace_back("dbg", JsonValue(std::move(dbg_block)));
  }
  status.emplace_back("engine", JsonValue(std::move(engine)));
  status.emplace_back("requests", JsonValue(std::move(requests)));
  if (live_ != nullptr) {
    const live::LiveStats live_stats = live_->stats();
    JsonValue::Object live;
    live.emplace_back("epoch",
                      JsonValue(static_cast<double>(live_stats.epoch)));
    live.emplace_back("wal_records",
                      JsonValue(static_cast<double>(live_stats.wal_records)));
    live.emplace_back("documents",
                      JsonValue(static_cast<double>(live_stats.documents)));
    live.emplace_back("tombstones",
                      JsonValue(static_cast<double>(live_stats.tombstones)));
    live.emplace_back(
        "folded_since_refresh",
        JsonValue(static_cast<double>(live_stats.folded_since_refresh)));
    live.emplace_back(
        "pending_writes",
        JsonValue(static_cast<double>(live_stats.pending_writes)));
    live.emplace_back("drift_mean_radians",
                      JsonValue(live_stats.drift_mean_radians));
    live.emplace_back("drift_max_radians",
                      JsonValue(live_stats.drift_max_radians));
    live.emplace_back("publishes",
                      JsonValue(static_cast<double>(live_stats.publishes)));
    live.emplace_back("refreshes",
                      JsonValue(static_cast<double>(live_stats.refreshes)));
    live.emplace_back(
        "refresh_failures",
        JsonValue(static_cast<double>(live_stats.refresh_failures)));
    live.emplace_back("refresh_in_progress",
                      JsonValue(live_stats.refresh_in_progress));
    status.emplace_back("live", JsonValue(std::move(live)));
  }
  return JsonOk(JsonValue(std::move(status)).Serialize());
}

}  // namespace lsi::serve
