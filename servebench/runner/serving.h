// The serving side of a run: the stack an operator starts (LsiService,
// Router or LiveEngine behind HttpServer on loopback), the benchmark's
// own spans around each handler, the in-process reference replies, and
// the traced replays of each layer's public functions.

#ifndef SERVEBENCH_RUNNER_SERVING_H_
#define SERVEBENCH_RUNNER_SERVING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "runner/workload.h"
#include "serve/json.h"
#include "text/corpus.h"

namespace lsi::servebench {

/// Handler spans, recorded only while the shared trace flag is set, and
/// /query request counts per handler kind, kept always: QueryCache
/// stats are process-wide, so with a router and its backends in one
/// process the per-cache hit counts come from these.
struct SpanLog {
  enum class Kind { kQuery, kWrite, kRouter, kBackend };
  std::atomic<std::uint64_t> query_requests[4] = {};
  struct Span {
    Kind kind = Kind::kQuery;
    std::string body;  ///< Request body: joins router and backend spans.
    double ms = 0.0;
  };
  std::vector<Span> Take();

  std::mutex mutex;
  std::vector<Span> spans;
  std::size_t queries = 0;             ///< /query requests seen traced.
  std::size_t tombstoned_queries = 0;  ///< ... on an engine with deletes.
};

/// A JSON array of raw samples, as the runner's reports carry them.
serve::JsonValue Samples(const std::vector<double>& values);

/// The canonical single-query reply body the service and router send.
std::string HitsBody(const std::vector<core::EngineHit>& hits);
/// The body the client posts for one query.
std::string QueryBody(const std::string& query);

class ServingStack {
 public:
  /// Builds and starts the workload's stack. `trace_flag` (shared with
  /// the load generator) switches the handler spans on and off.
  static std::unique_ptr<ServingStack> Start(
      const WorkloadSpec& spec, const text::Corpus& corpus,
      const std::string& workdir, const std::atomic<int>* trace_flag,
      SpanLog* spans);
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  int port() const;

  /// Counters read once before and once after the measured load.
  struct Counters {
    std::uint64_t cache_hits = 0;  ///< All QueryCaches of the process.
    std::uint64_t cache_misses = 0;
    std::uint64_t front_queries = 0;    ///< /query at the client's server.
    std::uint64_t backend_queries = 0;  ///< /query at shard backends.
    std::uint64_t batch_count = 0;
    double batch_sum = 0.0;
    double par_wait_ms = 0.0;
    std::uint64_t connections = 0;
    std::uint64_t hedges = 0;
    std::uint64_t refreshes = 0;
    double drift_mean_radians = 0.0;
  };
  Counters ReadCounters() const;

  /// Blocks until no live refresh is running (a no-op elsewhere), so the
  /// snapshot the probes see is the one the reference reads.
  void Quiesce() const;
  std::uint64_t epoch() const;

  /// Reference reply bodies, computed in process: LsiEngine::Query on
  /// the served engine, on an unsharded engine for the router, or on
  /// LiveEngine::Snapshot() for live.
  std::vector<std::string> ReferenceBodies(
      const std::vector<std::string>& queries);

  /// Σ NumDocuments() over the engines one uncached query scans.
  std::size_t RowsScannedPerQuery() const;

  /// Times each layer's public functions on the run's own inputs and
  /// returns the raw samples (see README.md for the metric table).
  serve::JsonValue Replay(const text::Corpus& corpus,
                          const std::vector<std::string>& queries,
                          const std::vector<std::string>& reference_bodies,
                          const std::vector<WriteOp>& writes,
                          const std::string& workdir);

 private:
  struct Impl;
  explicit ServingStack(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace lsi::servebench

#endif  // SERVEBENCH_RUNNER_SERVING_H_
