#include "runner/serving.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

#include "core/lsi_index.h"
#include "runner/http_client.h"
#include "linalg/dense_vector.h"
#include "live/live_engine.h"
#include "live/wal.h"
#include "obs/metrics.h"
#include "par/par.h"
#include "serve/http.h"
#include "serve/query_cache.h"
#include "serve/server.h"
#include "serve/service.h"
#include "shard/router.h"
#include "shard/shard_set.h"
#include "text/term_weighting.h"

namespace lsi::servebench {
namespace {

using Clock = std::chrono::steady_clock;
using serve::JsonValue;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Unwraps a setup Result; a stack that cannot start is a benchmark
/// failure, reported on stderr with a non-zero exit.
template <typename T>
T Must(lsi::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "servebench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(result).value();
}

void Must(const lsi::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "servebench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(2);
  }
}

bool IsWriteRoute(const std::string& target) {
  return target == "/add" || target == "/update" || target == "/delete";
}

/// Wraps a handler with the benchmark's span: the time the handler runs
/// for /query and write routes, while the trace flag is set.
serve::HttpServer::Handler Traced(serve::HttpServer::Handler inner,
                                  SpanLog::Kind kind,
                                  const std::atomic<int>* flag, SpanLog* log,
                                  std::function<bool()> tombstoned) {
  return [inner = std::move(inner), kind, flag, log,
          tombstoned = std::move(tombstoned)](
             const serve::HttpRequest& request, Clock::time_point deadline) {
    const bool write = IsWriteRoute(request.target);
    if (request.target == "/query") {
      log->query_requests[static_cast<int>(kind)].fetch_add(
          1, std::memory_order_relaxed);
    }
    if (flag->load(std::memory_order_relaxed) == 0 ||
        (request.target != "/query" && !write)) {
      return inner(request, deadline);
    }
    const Clock::time_point start = Clock::now();
    serve::HttpResponse response = inner(request, deadline);
    SpanLog::Span span;
    span.ms = MillisSince(start);
    span.kind = write ? SpanLog::Kind::kWrite : kind;
    span.body = request.body;
    const bool on_engine =
        !write && (kind == SpanLog::Kind::kQuery ||
                   kind == SpanLog::Kind::kBackend);
    std::lock_guard<std::mutex> lock(log->mutex);
    if (on_engine) {
      ++log->queries;
      if (tombstoned()) ++log->tombstoned_queries;
    }
    log->spans.push_back(std::move(span));
    return response;
  };
}

serve::ServerOptions LoopbackOptions(std::size_t threads) {
  serve::ServerOptions options;
  options.port = 0;
  options.host = "127.0.0.1";
  options.threads = threads;
  return options;
}

/// Times `fn` once, in the unit the caller scales to.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return MillisSince(start);
}

}  // namespace

JsonValue Samples(const std::vector<double>& values) {
  JsonValue::Array items;
  items.reserve(values.size());
  for (double v : values) items.emplace_back(v);
  return JsonValue(std::move(items));
}

std::vector<SpanLog::Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mutex);
  return std::exchange(spans, {});
}

std::string HitsBody(const std::vector<core::EngineHit>& hits) {
  JsonValue::Array items;
  items.reserve(hits.size());
  for (const core::EngineHit& hit : hits) {
    JsonValue::Object fields;
    fields.emplace_back("document", JsonValue(static_cast<double>(hit.document)));
    fields.emplace_back("name", JsonValue(hit.document_name));
    fields.emplace_back("score", JsonValue(hit.score));
    items.emplace_back(std::move(fields));
  }
  JsonValue::Object reply;
  reply.emplace_back("hits", JsonValue(std::move(items)));
  return JsonValue(std::move(reply)).Serialize();
}

std::string QueryBody(const std::string& query) {
  // Field order matches the router's forward body, so a backend span's
  // body equals the client body that caused it.
  JsonValue::Object body;
  body.emplace_back("query", JsonValue(query));
  body.emplace_back("top_k", JsonValue(static_cast<double>(kTopK)));
  return JsonValue(std::move(body)).Serialize();
}

struct ServingStack::Impl {
  WorkloadSpec spec;
  const text::Corpus* corpus = nullptr;
  const SpanLog* spans = nullptr;
  std::unique_ptr<core::LsiEngine> engine;
  std::unique_ptr<shard::ShardSet> shards;
  std::unique_ptr<live::LiveEngine> live;
  std::vector<std::unique_ptr<serve::LsiService>> services;
  std::vector<std::unique_ptr<serve::HttpServer>> backends;
  std::unique_ptr<shard::Router> router;
  std::unique_ptr<serve::HttpServer> front;
  std::unique_ptr<core::LsiEngine> unsharded;  // Router reference.

  core::LsiEngineOptions EngineOptions() const {
    core::LsiEngineOptions options;
    options.rank = kRank;
    return options;
  }

  /// The engine the per-layer replays run on: the served one, shard 0,
  /// or the live snapshot.
  std::shared_ptr<const core::LsiEngine> ReplayEngine() const {
    if (live) return live->Snapshot();
    const core::LsiEngine* e = shards ? &shards->shard(0) : engine.get();
    return std::shared_ptr<const core::LsiEngine>(
        std::shared_ptr<const core::LsiEngine>(), e);
  }

  ~Impl() {
    if (front) front->Stop();
    if (router) router->Stop();
    for (auto& server : backends) server->Stop();
    for (auto& service : services) service->Shutdown();
    if (live) (void)live->Close();
  }
};

ServingStack::ServingStack(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ServingStack::~ServingStack() = default;

std::unique_ptr<ServingStack> ServingStack::Start(
    const WorkloadSpec& spec, const text::Corpus& corpus,
    const std::string& workdir, const std::atomic<int>* trace_flag,
    SpanLog* spans) {
  auto impl = std::make_unique<Impl>();
  impl->spec = spec;
  impl->corpus = &corpus;
  impl->spans = spans;
  Impl* self = impl.get();
  // One keep-alive connection per client plus a spare.
  const std::size_t front_threads = spec.query_clients + spec.write_clients + 1;

  if (spec.shards > 0) {
    shard::ShardSetOptions options;
    options.num_shards = spec.shards;
    options.engine = impl->EngineOptions();
    impl->shards = std::make_unique<shard::ShardSet>(
        Must(shard::ShardSet::Build(corpus, options), "ShardSet::Build"));
    shard::RouterOptions router_options;
    for (std::size_t s = 0; s < spec.shards; ++s) {
      impl->services.push_back(
          std::make_unique<serve::LsiService>(impl->shards->shard(s)));
      serve::LsiService* service = impl->services.back().get();
      // Every in-flight router request holds one backend connection.
      impl->backends.push_back(std::make_unique<serve::HttpServer>(
          Traced([service](const serve::HttpRequest& r,
                           Clock::time_point d) { return service->Handle(r, d); },
                 SpanLog::Kind::kBackend, trace_flag, spans,
                 [] { return true; }),
          LoopbackOptions(spec.query_clients + 1)));
      Must(impl->backends.back()->Start(), "backend Start");
      router_options.shards.push_back(
          {"127.0.0.1:" + std::to_string(impl->backends.back()->port())});
    }
    impl->router = std::make_unique<shard::Router>(std::move(router_options));
    Must(impl->router->Start(), "Router::Start");
    shard::Router* router = impl->router.get();
    impl->front = std::make_unique<serve::HttpServer>(
        Traced([router](const serve::HttpRequest& r,
                        Clock::time_point d) { return router->Handle(r, d); },
               SpanLog::Kind::kRouter, trace_flag, spans, [] { return false; }),
        LoopbackOptions(front_threads));
  } else {
    std::function<bool()> tombstoned;
    if (spec.live) {
      const std::string wal_path = workdir + "/wal.log";
      ::unlink(wal_path.c_str());  // Each set-up starts from the base corpus.
      live::LiveOptions options;  // The `lsi_tool serve --live` defaults...
      options.engine = impl->EngineOptions();
      // ...except the drift threshold, set above the measured steady-state
      // mean residual angle (see README.md).
      options.drift_threshold_radians = spec.drift_threshold_radians;
      impl->live = Must(live::LiveEngine::Open(corpus, wal_path, options),
                        "LiveEngine::Open");
      impl->services.push_back(
          std::make_unique<serve::LsiService>(*impl->live));
      tombstoned = [self] {
        return self->live->Snapshot()->index().NumDeleted() > 0;
      };
    } else {
      impl->engine = std::make_unique<core::LsiEngine>(
          Must(core::LsiEngine::Build(corpus, impl->EngineOptions()),
               "LsiEngine::Build"));
      impl->services.push_back(
          std::make_unique<serve::LsiService>(*impl->engine));
      tombstoned = [self] {
        return self->engine->index().NumDeleted() > 0;
      };
    }
    serve::LsiService* service = impl->services.back().get();
    impl->front = std::make_unique<serve::HttpServer>(
        Traced([service](const serve::HttpRequest& r,
                         Clock::time_point d) { return service->Handle(r, d); },
               SpanLog::Kind::kQuery, trace_flag, spans, std::move(tombstoned)),
        LoopbackOptions(front_threads));
  }
  Must(impl->front->Start(), "HttpServer::Start");
  return std::unique_ptr<ServingStack>(new ServingStack(std::move(impl)));
}

int ServingStack::port() const { return impl_->front->port(); }

ServingStack::Counters ServingStack::ReadCounters() const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  Counters c;
  c.cache_hits = registry.GetCounter("lsi.serve.cache.hits").value();
  c.cache_misses = registry.GetCounter("lsi.serve.cache.misses").value();
  const auto count = [this](SpanLog::Kind kind) {
    return impl_->spans->query_requests[static_cast<int>(kind)].load(
        std::memory_order_relaxed);
  };
  c.front_queries = count(impl_->router ? SpanLog::Kind::kRouter
                                        : SpanLog::Kind::kQuery);
  c.backend_queries = count(SpanLog::Kind::kBackend);
  const obs::Histogram& batch = registry.GetHistogram("lsi.serve.batch.size");
  c.batch_count = batch.count();
  c.batch_sum = batch.sum();
  c.par_wait_ms = registry.GetGauge("lsi.par.wait_ms").value();
  c.connections = registry.GetCounter("lsi.serve.connections").value();
  c.hedges = registry.GetCounter("lsi.shard.hedges").value();
  if (impl_->live) {
    const live::LiveStats stats = impl_->live->stats();
    c.refreshes = stats.refreshes;
    c.drift_mean_radians = stats.drift_mean_radians;
  }
  return c;
}

void ServingStack::Quiesce() const {
  if (!impl_->live) return;
  while (impl_->live->stats().refresh_in_progress) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::uint64_t ServingStack::epoch() const {
  return impl_->live ? impl_->live->epoch() : 0;
}

std::vector<std::string> ServingStack::ReferenceBodies(
    const std::vector<std::string>& queries) {
  std::shared_ptr<const core::LsiEngine> engine;
  if (impl_->shards) {
    // The sharded == unsharded contract: compare with one engine built
    // over the whole corpus.
    if (!impl_->unsharded) {
      impl_->unsharded = std::make_unique<core::LsiEngine>(
          Must(core::LsiEngine::Build(*impl_->corpus, impl_->EngineOptions()),
               "unsharded LsiEngine::Build"));
    }
    engine = std::shared_ptr<const core::LsiEngine>(
        std::shared_ptr<const core::LsiEngine>(), impl_->unsharded.get());
  } else {
    engine = impl_->ReplayEngine();
  }
  auto batch = Must(engine->QueryBatch(queries, kTopK), "reference QueryBatch");
  std::vector<std::string> bodies;
  bodies.reserve(batch.size());
  for (const auto& hits : batch) bodies.push_back(HitsBody(hits));
  return bodies;
}

std::size_t ServingStack::RowsScannedPerQuery() const {
  if (impl_->shards) {
    std::size_t rows = 0;
    for (std::size_t s = 0; s < impl_->shards->num_shards(); ++s) {
      rows += impl_->shards->shard(s).NumDocuments();
    }
    return rows;
  }
  return impl_->ReplayEngine()->NumDocuments();
}

serve::JsonValue ServingStack::Replay(
    const text::Corpus& corpus, const std::vector<std::string>& queries,
    const std::vector<std::string>& reference_bodies,
    const std::vector<WriteOp>& writes, const std::string& workdir) {
  const WorkloadSpec& spec = impl_->spec;
  const std::shared_ptr<const core::LsiEngine> engine = impl_->ReplayEngine();
  const core::LsiIndex& index = engine->index();
  const text::WeightingScheme scheme = engine->weighting();
  const std::vector<double> global_weights =
      text::ComputeGlobalWeights(corpus, scheme);
  JsonValue::Object out;

  // text + core: one query's stages, on the weighted query vector the
  // engine builds from AnalyzeQueryCounts.
  std::vector<double> analyze_us, fold_in_ms, search_ms, select_ms,
      select_all_ms, search_1t_ms;
  std::vector<std::vector<core::EngineHit>> per_shard_hits;
  std::vector<double> merge_us;
  for (const std::string& query : queries) {
    std::vector<std::pair<std::size_t, std::size_t>> counts;
    analyze_us.push_back(
        1000.0 * TimeMs([&] { counts = engine->AnalyzeQueryCounts(query); }));
    linalg::DenseVector vector(engine->NumTerms(), 0.0);
    for (const auto& [term, count] : counts) {
      vector[term] = text::LocalTermWeight(scheme, count) * global_weights[term];
    }
    fold_in_ms.push_back(TimeMs([&] { (void)index.FoldInQuery(vector); }));
    search_ms.push_back(TimeMs([&] { (void)index.Search(vector, kTopK); }));
    // Scores by document id, recovered from the full ranking.
    std::vector<double> scores(engine->NumDocuments(), 0.0);
    for (const core::SearchResult& r : Must(index.Search(vector, 0), "Search")) {
      scores[r.document] = r.score;
    }
    select_ms.push_back(TimeMs([&] { (void)core::RankScores(scores, kTopK); }));
    select_all_ms.push_back(TimeMs([&] { (void)core::RankScores(scores, 0); }));
    if (impl_->shards) {
      std::vector<std::vector<core::EngineHit>> sources;
      for (std::size_t s = 0; s < impl_->shards->num_shards(); ++s) {
        sources.push_back(
            Must(impl_->shards->shard(s).Query(query, kTopK), "shard Query"));
      }
      merge_us.push_back(1000.0 * TimeMs([&] {
        (void)core::MergeTopKHits(std::move(sources), kTopK);
      }));
    }
  }
  if (spec.threads > 1) {
    lsi::par::SetThreads(1);
    for (const std::string& query : queries) {
      linalg::DenseVector vector(engine->NumTerms(), 0.0);
      for (const auto& [term, count] : engine->AnalyzeQueryCounts(query)) {
        vector[term] =
            text::LocalTermWeight(scheme, count) * global_weights[term];
      }
      search_1t_ms.push_back(TimeMs([&] { (void)index.Search(vector, kTopK); }));
    }
    lsi::par::SetThreads(spec.threads);
  }
  out.emplace_back("analyze_us", Samples(analyze_us));
  out.emplace_back("fold_in_ms", Samples(fold_in_ms));
  out.emplace_back("search_ms", Samples(search_ms));
  out.emplace_back("search_1t_ms", Samples(search_1t_ms));
  out.emplace_back("select_ms", Samples(select_ms));
  out.emplace_back("select_all_ms", Samples(select_all_ms));
  out.emplace_back("merge_us", Samples(merge_us));
  out.emplace_back("tombstone_path", JsonValue(index.NumDeleted() > 0));

  // serve: the request bytes the client sent, the JSON on both sides,
  // and a cache lookup that hits.
  std::vector<double> parse_us, json_us, cache_get_us;
  serve::QueryCache cache;
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::string bytes =
        BuildRequest("POST", "/query", QueryBody(queries[i]));
    parse_us.push_back(1000.0 * TimeMs([&] {
      serve::HttpParser parser;
      (void)parser.Feed(bytes);
    }));
    serve::HttpResponse response;
    response.content_type = "application/json; charset=utf-8";
    response.body = reference_bodies[i];
    json_us.push_back(1000.0 * TimeMs([&] {
      (void)serve::JsonValue::Parse(QueryBody(queries[i]));
      (void)serve::SerializeResponse(response, true);
    }));
    keys.push_back(
        serve::QueryCache::Key(engine->AnalyzeQueryCounts(queries[i]), kTopK));
    cache.Put(keys.back(), Must(engine->Query(queries[i], kTopK), "Query"));
  }
  for (const std::string& key : keys) {
    cache_get_us.push_back(1000.0 * TimeMs([&] { (void)cache.Get(key); }));
  }
  out.emplace_back("http_parse_us", Samples(parse_us));
  out.emplace_back("json_us", Samples(json_us));
  out.emplace_back("cache_get_us", Samples(cache_get_us));

  // text + linalg + par: the build, stage by stage, at the workload's
  // threads and (when that is more than one) at one thread.
  obs::Counter& iterations =
      obs::MetricsRegistry::Global().GetCounter("lsi.svd.lanczos.iterations");
  text::TermDocumentMatrixOptions matrix_options;
  matrix_options.scheme = scheme;
  linalg::SparseMatrix matrix(0, 0);
  const double weight_ms = TimeMs([&] {
    matrix = Must(text::BuildTermDocumentMatrix(corpus, matrix_options),
                  "BuildTermDocumentMatrix");
  });
  core::LsiOptions lsi_options;
  lsi_options.rank = kRank;
  const std::uint64_t iterations_before = iterations.value();
  const double svd_ms = TimeMs(
      [&] { (void)Must(core::LsiIndex::Build(matrix, lsi_options), "Build"); });
  out.emplace_back("weight_matrix_s", JsonValue(weight_ms / 1000.0));
  out.emplace_back("svd_s", JsonValue(svd_ms / 1000.0));
  out.emplace_back("lanczos_iterations",
                   JsonValue(static_cast<double>(iterations.value() -
                                                 iterations_before)));
  if (spec.threads > 1) {
    lsi::par::SetThreads(1);
    const double svd_1t_ms = TimeMs(
        [&] { (void)Must(core::LsiIndex::Build(matrix, lsi_options), "Build"); });
    lsi::par::SetThreads(spec.threads);
    out.emplace_back("svd_1t_s", JsonValue(svd_1t_ms / 1000.0));
  }

  // live: the pieces of one acknowledged write — the WAL append (with
  // its fsync) on a throwaway log on the same disk, the engine copy a
  // publish makes, and the fold-in of the new document.
  if (impl_->live && !writes.empty()) {
    const std::string path = workdir + "/replay.wal";
    ::unlink(path.c_str());
    auto wal = Must(live::Wal::Open(path, corpus.NumDocuments()), "Wal::Open");
    const std::uint64_t bytes_before = wal->committed_bytes();
    std::vector<double> wal_ms;
    for (const WriteOp& op : writes) {
      const live::WalOp wal_op = op.kind == WriteKind::kAdd ? live::WalOp::kAdd
                                 : op.kind == WriteKind::kUpdate
                                     ? live::WalOp::kUpdate
                                     : live::WalOp::kDelete;
      wal_ms.push_back(
          TimeMs([&] { (void)Must(wal->Append(wal_op, op.name, op.text), "Append"); }));
    }
    out.emplace_back("wal_append_ms", Samples(wal_ms));
    out.emplace_back(
        "wal_bytes_per_write",
        JsonValue(static_cast<double>(wal->committed_bytes() - bytes_before) /
                  static_cast<double>(writes.size())));
    Must(wal->Close(), "Wal::Close");
    ::unlink(path.c_str());

    std::vector<double> copy_ms, fold_ms;
    std::unique_ptr<core::LsiEngine> copy;
    for (int i = 0; i < 5; ++i) {
      copy_ms.push_back(
          TimeMs([&] { copy = std::make_unique<core::LsiEngine>(*engine); }));
    }
    for (const WriteOp& op : writes) {
      if (op.kind == WriteKind::kDelete) continue;
      fold_ms.push_back(
          TimeMs([&] { (void)Must(copy->FoldInDocument(op.name, op.text), "FoldIn"); }));
    }
    out.emplace_back("engine_copy_ms", Samples(copy_ms));
    out.emplace_back("fold_in_doc_ms", Samples(fold_ms));
  }
  return JsonValue(std::move(out));
}

}  // namespace lsi::servebench
