// lsi_tool — command-line front end for the LSI engine.
//
//   lsi_tool index <corpus.tsv> <engine.bin> [rank] [weighting]
//       Builds an engine from a TSV corpus (name<TAB>text per line) and
//       saves it. weighting: tf | binary | logtf | tfidf | logentropy
//       (default tfidf); rank defaults to 100 (clamped to the corpus).
//
//   lsi_tool query <engine.bin> <query text...>
//       Loads an engine and prints the top 10 hits.
//
//   lsi_tool similar <engine.bin> <document-index>
//       Prints the 10 documents most similar to an indexed document.
//
//   lsi_tool related <engine.bin> <term>
//       Prints latent-space synonyms of a term.
//
//   lsi_tool info <engine.bin>
//       Prints engine dimensions and the active SIMD dispatch path.
//
//   lsi_tool simd
//       Prints the active SIMD kernel path (scalar | avx2 | neon) and
//       exits. Honors LSI_SIMD; scripts use this to label benchmarks.
//
//   lsi_tool stats <engine.bin> [query text...]
//       Loads an engine, optionally runs a query, and dumps the metrics
//       registry (JSON unless --stats=prom is also given).
//
//   lsi_tool serve <engine.bin> [--port=N] [--host=A] [--threads=N]
//                  [--deadline-ms=N]
//       Loads an engine once and serves it over HTTP until SIGINT or
//       SIGTERM, then drains in-flight requests and exits 0. Routes:
//       POST /query, POST /related, GET /healthz, /statusz, /metrics.
//       Results are not cached (a `route` in front caches them). Flag
//       defaults come from LSI_PORT, LSI_DEADLINE_MS (and LSI_THREADS,
//       as everywhere else).
//
//   lsi_tool serve --live=<dir> [serve flags] [--rank=N] [--weighting=W]
//                  [--publish-every=N] [--refresh-ms=N]
//                  [--drift-threshold=R]
//       Live mode: <dir>/corpus.tsv is the base corpus and <dir>/wal.log
//       the write-ahead log (created if missing, replayed if present).
//       Adds POST /add, /delete, /update; queries run against epoch
//       snapshots and a background thread re-runs the SVD when fold-in
//       drift crosses --drift-threshold radians. Drain order on signal:
//       stop accepting, flush the pending epoch, close the WAL.
//
//   lsi_tool serve ... [--wal-compact-bytes=N] [--wal-compact-ops=N]
//       Live mode only: once the WAL exceeds N committed bytes (or N
//       records), the next acknowledged write folds it into corpus.tsv
//       in-process and resets the log. Both default to 0 (off).
//
//   lsi_tool route --shard=host:port[,host:port...] [--shard=...]
//                  [--port=N] [--host=A] [--deadline-ms=N]
//                  [--partial=degrade|fail] [--health-interval-ms=N]
//                  [--cache-mb=N]
//       Scatter-gather router over shard backends (each one a
//       `lsi_tool serve` holding that shard's slice). Every --shard
//       names one shard; commas separate its replicas (first = primary,
//       later = hedge targets). Serves POST /query, GET /healthz,
//       /statusz, /metrics; /query fans out with the remaining deadline
//       in X-Lsi-Deadline-Ms over pooled keep-alive connections,
//       hedges slow shards once after a p95-derived delay, and — under
//       --partial=degrade — answers over the surviving shards with
//       X-Lsi-Partial: true when some fail. --cache-mb (default
//       LSI_CACHE_MB, else 64; 0 turns it off) sizes the result cache of
//       full single-query answers; replies from live backends are never
//       cached.
//
//   lsi_tool add <live-dir> <name> <text...>
//       Appends one add record to <live-dir>/wal.log without starting a
//       server; the next live serve (or compact) replays it.
//
//   lsi_tool compact <live-dir> [--reset-wal]
//       Folds <live-dir>/wal.log into <live-dir>/corpus.tsv and resets
//       the WAL, so the next startup replays nothing. --reset-wal skips
//       the fold and just re-pins an empty WAL to the current corpus
//       (escape hatch for a WAL that no longer matches).
//
// Any command additionally accepts --stats[=json|prom]: after the
// command finishes, the metrics registry (solver convergence counters,
// per-stage latency histograms) is dumped to stdout. The dump starts
// at the first line beginning with '{' (JSON) or '#' (Prometheus).
// Any command also accepts --threads=N to cap the worker threads the
// parallel kernels use (equivalent to LSI_THREADS=N; 1 = fully serial).
// Environment:
//   LSI_METRICS=json|prom   same as passing --stats=<format>
//   LSI_THREADS=N           worker-thread cap (0/unset = all cores)
//   LSI_LOG_LEVEL=debug|info|warn|error   log verbosity (default info)

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/engine.h"
#include "linalg/simd/simd.h"
#include "obs/metrics.h"
#include "live/compact.h"
#include "live/live_engine.h"
#include "live/wal.h"
#include "obs/export.h"
#include "par/par.h"
#include "serve/server.h"
#include "serve/service.h"
#include "shard/router.h"
#include "text/corpus_io.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  lsi_tool index <corpus.tsv> <engine.bin> [rank] "
               "[tf|binary|logtf|tfidf|logentropy]\n"
               "  lsi_tool query <engine.bin> <query text...>\n"
               "  lsi_tool similar <engine.bin> <document-index>\n"
               "  lsi_tool related <engine.bin> <term>\n"
               "  lsi_tool info <engine.bin>\n"
               "  lsi_tool simd\n"
               "  lsi_tool stats <engine.bin> [query text...]\n"
               "  lsi_tool serve <engine.bin> [--port=N] [--host=A]\n"
               "                 [--deadline-ms=N]\n"
               "  lsi_tool serve --live=<dir> [serve flags] [--rank=N]\n"
               "                 [--weighting=W] [--publish-every=N]\n"
               "                 [--refresh-ms=N] [--drift-threshold=R]\n"
               "                 [--wal-compact-bytes=N] "
               "[--wal-compact-ops=N]\n"
               "  lsi_tool route --shard=host:port[,host:port...] "
               "[--shard=...]\n"
               "                 [--port=N] [--host=A] [--deadline-ms=N]\n"
               "                 [--partial=degrade|fail] "
               "[--health-interval-ms=N]\n"
               "                 [--cache-mb=N]\n"
               "  lsi_tool add <live-dir> <name> <text...>\n"
               "  lsi_tool compact <live-dir> [--reset-wal]\n"
               "\n"
               "flags:\n"
               "  --stats[=json|prom]  dump the metrics registry (solver\n"
               "                       convergence counters, latency\n"
               "                       histograms)\n"
               "                       to stdout after the command\n"
               "  --threads=N          cap parallel kernels at N threads\n"
               "                       (1 = serial; default: all cores)\n"
               "\n"
               "environment:\n"
               "  LSI_METRICS=json|prom              same as --stats=<fmt>\n"
               "  LSI_THREADS=N                      same as --threads=N\n"
               "  LSI_LOG_LEVEL=debug|info|warn|error  log verbosity\n"
               "  LSI_DEADLOCK_DETECT=1              runtime lock-order "
               "checking\n"
               "  LSI_PORT, LSI_DEADLINE_MS          serve and route flag "
               "defaults\n"
               "  LSI_CACHE_MB                       route --cache-mb "
               "default\n");
  return 2;
}

bool ParseWeighting(const char* name, lsi::text::WeightingScheme* out) {
  if (std::strcmp(name, "tf") == 0) {
    *out = lsi::text::WeightingScheme::kTermFrequency;
  } else if (std::strcmp(name, "binary") == 0) {
    *out = lsi::text::WeightingScheme::kBinary;
  } else if (std::strcmp(name, "logtf") == 0) {
    *out = lsi::text::WeightingScheme::kLogTermFrequency;
  } else if (std::strcmp(name, "tfidf") == 0) {
    *out = lsi::text::WeightingScheme::kTfIdf;
  } else if (std::strcmp(name, "logentropy") == 0) {
    *out = lsi::text::WeightingScheme::kLogEntropy;
  } else {
    return false;
  }
  return true;
}

int CommandIndex(int argc, char** argv) {
  if (argc < 4) return Usage();
  lsi::core::LsiEngineOptions options;
  options.rank = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 100;
  if (argc > 5 && !ParseWeighting(argv[5], &options.weighting)) {
    std::fprintf(stderr, "unknown weighting: %s\n", argv[5]);
    return 2;
  }
  lsi::text::Analyzer analyzer;
  auto corpus = lsi::text::LoadCorpusFromFile(argv[2], analyzer);
  if (!corpus.ok()) {
    std::fprintf(stderr, "load: %s\n", corpus.status().ToString().c_str());
    return 1;
  }
  auto engine = lsi::core::LsiEngine::Build(corpus.value(), options);
  if (!engine.ok()) {
    std::fprintf(stderr, "build: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  if (auto saved = engine->Save(argv[3]); !saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("indexed %zu documents (%zu terms) at rank %zu -> %s\n",
              engine->NumDocuments(), engine->NumTerms(), engine->rank(),
              argv[3]);
  return 0;
}

int CommandQuery(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto engine = lsi::core::LsiEngine::Load(argv[2]);
  if (!engine.ok()) {
    std::fprintf(stderr, "load: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::string query;
  for (int i = 3; i < argc; ++i) {
    if (!query.empty()) query += ' ';
    query += argv[i];
  }
  auto hits = engine->Query(query, 10);
  if (!hits.ok()) {
    std::fprintf(stderr, "query: %s\n", hits.status().ToString().c_str());
    return 1;
  }
  if (hits->empty()) {
    std::printf("no hits (no query term occurs in the corpus)\n");
    return 0;
  }
  for (const lsi::core::EngineHit& hit : hits.value()) {
    std::printf("%8.4f  %s\n", hit.score, hit.document_name.c_str());
  }
  return 0;
}

int CommandSimilar(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto engine = lsi::core::LsiEngine::Load(argv[2]);
  if (!engine.ok()) {
    std::fprintf(stderr, "load: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::size_t document = std::strtoul(argv[3], nullptr, 10);
  auto hits = engine->MoreLikeThis(document, 10);
  if (!hits.ok()) {
    std::fprintf(stderr, "similar: %s\n", hits.status().ToString().c_str());
    return 1;
  }
  auto name = engine->DocumentName(document);
  std::printf("documents similar to #%zu (%s):\n", document,
              name.ok() ? name->c_str() : "?");
  for (const lsi::core::EngineHit& hit : hits.value()) {
    std::printf("%8.4f  %s\n", hit.score, hit.document_name.c_str());
  }
  return 0;
}

int CommandRelated(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto engine = lsi::core::LsiEngine::Load(argv[2]);
  if (!engine.ok()) {
    std::fprintf(stderr, "load: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  auto related = engine->RelatedTerms(argv[3], 10);
  if (!related.ok()) {
    std::fprintf(stderr, "related: %s\n",
                 related.status().ToString().c_str());
    return 1;
  }
  std::printf("terms related to \"%s\":\n", argv[3]);
  for (const lsi::core::RelatedTerm& r : related.value()) {
    std::printf("%8.4f  %s\n", r.score, r.term.c_str());
  }
  return 0;
}

int CommandInfo(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto engine = lsi::core::LsiEngine::Load(argv[2]);
  if (!engine.ok()) {
    std::fprintf(stderr, "load: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("documents: %zu\nterms:     %zu\nrank:      %zu\nsimd:      %s\n",
              engine->NumDocuments(), engine->NumTerms(), engine->rank(),
              lsi::linalg::simd::PathName(lsi::linalg::simd::ActivePath()));
  return 0;
}

/// `simd` subcommand: print the dispatch path this process resolved
/// (after LSI_SIMD), one word, machine-readable.
int CommandSimd() {
  std::printf("%s\n",
              lsi::linalg::simd::PathName(lsi::linalg::simd::ActivePath()));
  return 0;
}

/// `stats` subcommand: load (and optionally query) an engine purely to
/// populate the registry, then dump it. The dump itself happens in
/// main()'s epilogue, shared with --stats.
int CommandStats(int argc, char** argv,
                 lsi::obs::ExportFormat* dump_format) {
  if (argc < 3) return Usage();
  auto engine = lsi::core::LsiEngine::Load(argv[2]);
  if (!engine.ok()) {
    std::fprintf(stderr, "load: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  if (argc > 3) {
    std::string query;
    for (int i = 3; i < argc; ++i) {
      if (!query.empty()) query += ' ';
      query += argv[i];
    }
    auto hits = engine->Query(query, 10);
    if (!hits.ok()) {
      std::fprintf(stderr, "query: %s\n", hits.status().ToString().c_str());
      return 1;
    }
  }
  if (*dump_format == lsi::obs::ExportFormat::kNone) {
    *dump_format = lsi::obs::ExportFormat::kJson;
  }
  return 0;
}

volatile std::sig_atomic_t g_shutdown_signal = 0;

void HandleShutdownSignal(int) { g_shutdown_signal = 1; }

/// Parses a non-negative integer flag value ("--port=8080" tail or an
/// env var). Returns false on garbage.
bool ParseSizeValue(const char* text, std::size_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

/// Flag default: the env var when set and numeric, else `fallback`.
std::size_t SizeFromEnv(const char* name, std::size_t fallback) {
  std::size_t value = 0;
  if (ParseSizeValue(std::getenv(name), &value)) return value;
  return fallback;
}

/// Parses a non-negative double flag value. Returns false on garbage.
bool ParseDoubleValue(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || value < 0.0) return false;
  *out = value;
  return true;
}

/// The HTTP front end `serve` and `route` share: the flags below, with
/// LSI_PORT / LSI_DEADLINE_MS defaults, and the serve-until-signal loop.
struct FrontEnd {
  std::size_t port = SizeFromEnv("LSI_PORT", 8080);
  std::size_t deadline_ms = SizeFromEnv("LSI_DEADLINE_MS", 2000);
  std::string host = "0.0.0.0";

  /// Takes `arg` when it is --port, --host or --deadline-ms, setting `*ok` to whether its value parsed; false for any other arg.
  bool ParseFlag(const char* arg, bool* ok) {
    if (std::strncmp(arg, "--port=", 7) == 0) {
      *ok = ParseSizeValue(arg + 7, &port) && port <= 65535;
    } else if (std::strncmp(arg, "--host=", 7) == 0) {
      host = arg + 7;
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      *ok = ParseSizeValue(arg + 14, &deadline_ms) && deadline_ms > 0;
    } else {
      return false;
    }
    return true;
  }

  /// Serves `handler` until SIGINT or SIGTERM, then drains. `announce`
  /// prints the startup line given the bound port; `stop` runs after the
  /// server stops accepting (and after a failed start) and returns the
  /// exit code. A failed start prints "<command>: <error>" and exits 1.
  int Run(const char* command, lsi::serve::HttpServer::Handler handler,
          const std::function<void(int port)>& announce,
          const std::function<int()>& stop) const {
    lsi::serve::ServerOptions options;
    options.port = static_cast<int>(port);
    options.host = host;
    // Each connection worker runs its requests' engine calls itself, and
    // every call fans out across the lsi::par pool, so a worker per pool
    // thread (at least 4, for connections idling on I/O) suffices.
    options.threads = std::max<std::size_t>(4, lsi::par::Threads());
    options.deadline = std::chrono::milliseconds(deadline_ms);
    lsi::serve::HttpServer server(std::move(handler), options);
    if (auto started = server.Start(); !started.ok()) {
      std::fprintf(stderr, "%s: %s\n", command, started.ToString().c_str());
      stop();
      return 1;
    }

    std::signal(SIGINT, HandleShutdownSignal);
    std::signal(SIGTERM, HandleShutdownSignal);
    announce(server.port());
    std::fflush(stdout);

    while (g_shutdown_signal == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    std::printf("shutdown signal received, draining\n");
    std::fflush(stdout);
    server.Stop();
    const int code = stop();
    if (code == 0) std::printf("drained, exiting\n");
    return code;
  }
};

int CommandServe(int argc, char** argv) {
  if (argc < 3) return Usage();
  FrontEnd front;
  const char* engine_path = nullptr;
  std::string live_dir;
  lsi::live::LiveOptions live_options;
  std::size_t refresh_ms = 2000;

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (front.ParseFlag(arg, &ok)) {
      // --port, --host or --deadline-ms.
    } else if (std::strncmp(arg, "--live=", 7) == 0) {
      live_dir = arg + 7;
      ok = !live_dir.empty();
    } else if (std::strncmp(arg, "--rank=", 7) == 0) {
      ok = ParseSizeValue(arg + 7, &live_options.engine.rank) &&
           live_options.engine.rank > 0;
    } else if (std::strncmp(arg, "--weighting=", 12) == 0) {
      ok = ParseWeighting(arg + 12, &live_options.engine.weighting);
    } else if (std::strncmp(arg, "--publish-every=", 16) == 0) {
      ok = ParseSizeValue(arg + 16, &live_options.publish_every) &&
           live_options.publish_every > 0;
    } else if (std::strncmp(arg, "--refresh-ms=", 13) == 0) {
      ok = ParseSizeValue(arg + 13, &refresh_ms) && refresh_ms > 0;
    } else if (std::strncmp(arg, "--drift-threshold=", 18) == 0) {
      ok = ParseDoubleValue(arg + 18, &live_options.drift_threshold_radians);
    } else if (std::strncmp(arg, "--wal-compact-bytes=", 20) == 0) {
      std::size_t bytes = 0;
      ok = ParseSizeValue(arg + 20, &bytes);
      live_options.wal_compact_bytes = bytes;
    } else if (std::strncmp(arg, "--wal-compact-ops=", 18) == 0) {
      std::size_t ops = 0;
      ok = ParseSizeValue(arg + 18, &ops);
      live_options.wal_compact_ops = ops;
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "unknown serve flag: %s\n", arg);
      return 2;
    } else if (engine_path == nullptr) {
      engine_path = arg;
    } else {
      return Usage();
    }
    if (!ok) {
      std::fprintf(stderr, "bad value in flag: %s\n", arg);
      return 2;
    }
  }
  if ((engine_path == nullptr) == live_dir.empty()) {
    std::fprintf(stderr,
                 "serve takes exactly one of <engine.bin> or --live=<dir>\n");
    return 2;
  }

  // Exactly one of these two backs the service.
  lsi::Result<lsi::core::LsiEngine> engine =
      lsi::Status::NotFound("not loaded");
  std::unique_ptr<lsi::live::LiveEngine> live;
  std::string serving_what;
  if (live_dir.empty()) {
    engine = lsi::core::LsiEngine::Load(engine_path);
    if (!engine.ok()) {
      std::fprintf(stderr, "load: %s\n", engine.status().ToString().c_str());
      return 1;
    }
    serving_what = engine_path;
  } else {
    lsi::text::Analyzer analyzer;
    auto corpus =
        lsi::text::LoadCorpusFromFile(live_dir + "/corpus.tsv", analyzer);
    if (!corpus.ok()) {
      std::fprintf(stderr, "load corpus: %s\n",
                   corpus.status().ToString().c_str());
      return 1;
    }
    live_options.refresh_interval = std::chrono::milliseconds(refresh_ms);
    live_options.corpus_path = live_dir + "/corpus.tsv";
    auto opened = lsi::live::LiveEngine::Open(
        std::move(corpus).value(), live_dir + "/wal.log", live_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "live open: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    live = std::move(opened).value();
    serving_what = live_dir + " (live)";
  }

  // Heap-allocated because LsiService is pinned (atomics) and the mode
  // picks its constructor at run time.
  std::unique_ptr<lsi::serve::LsiService> service =
      live != nullptr
          ? std::make_unique<lsi::serve::LsiService>(*live)
          : std::make_unique<lsi::serve::LsiService>(engine.value());

  return front.Run(
      "serve",
      [&service](const lsi::serve::HttpRequest& request,
                 std::chrono::steady_clock::time_point deadline) {
        return service->Handle(request, deadline);
      },
      [&](int bound_port) {
        const lsi::core::LsiEngine* shape =
            live != nullptr ? live->Snapshot().get() : &engine.value();
        std::printf("serving %s on %s:%d (%zu docs, %zu terms, rank %zu)\n",
                    serving_what.c_str(), front.host.c_str(), bound_port,
                    shape->NumDocuments(), shape->NumTerms(), shape->rank());
      },
      // Drain order: stop accepting connections (done by Run), flush
      // queued queries and the pending live epoch, then close the WAL —
      // every acknowledged write is durable before the process exits.
      [&] {
        service->Shutdown();
        if (live != nullptr) {
          if (auto closed = live->Close(); !closed.ok()) {
            std::fprintf(stderr, "wal close: %s\n",
                         closed.ToString().c_str());
            return 1;
          }
        }
        return 0;
      });
}

/// `route` subcommand: scatter-gather router over shard backends.
int CommandRoute(int argc, char** argv) {
  FrontEnd front;
  lsi::shard::RouterOptions options;
  std::size_t cache_mb = SizeFromEnv("LSI_CACHE_MB", 64);

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    bool ok = true;
    if (front.ParseFlag(arg, &ok)) {
      // --port, --host or --deadline-ms.
    } else if (std::strncmp(arg, "--shard=", 8) == 0) {
      // One --shard per shard; commas separate that shard's replicas.
      std::vector<std::string> replicas;
      std::string list = arg + 8;
      std::size_t start = 0;
      while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) {
          replicas.push_back(list.substr(start, comma - start));
        }
        start = comma + 1;
      }
      ok = !replicas.empty();
      if (ok) options.shards.push_back(std::move(replicas));
    } else if (std::strncmp(arg, "--cache-mb=", 11) == 0) {
      ok = ParseSizeValue(arg + 11, &cache_mb);
    } else if (std::strncmp(arg, "--partial=", 10) == 0) {
      if (std::strcmp(arg + 10, "degrade") == 0) {
        options.partial = lsi::shard::PartialPolicy::kDegrade;
      } else if (std::strcmp(arg + 10, "fail") == 0) {
        options.partial = lsi::shard::PartialPolicy::kFail;
      } else {
        ok = false;
      }
    } else if (std::strncmp(arg, "--health-interval-ms=", 21) == 0) {
      std::size_t ms = 0;
      ok = ParseSizeValue(arg + 21, &ms) && ms > 0;
      options.health_interval = std::chrono::milliseconds(ms);
    } else {
      std::fprintf(stderr, "unknown route flag: %s\n", arg);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value in flag: %s\n", arg);
      return 2;
    }
  }
  if (options.shards.empty()) {
    std::fprintf(stderr, "route needs at least one --shard=host:port\n");
    return 2;
  }
  options.cache.max_bytes = cache_mb * 1024 * 1024;

  lsi::shard::Router router(std::move(options));
  if (auto started = router.Start(); !started.ok()) {
    std::fprintf(stderr, "route: %s\n", started.ToString().c_str());
    return 1;
  }
  return front.Run(
      "route",
      [&router](const lsi::serve::HttpRequest& request,
                std::chrono::steady_clock::time_point deadline) {
        return router.Handle(request, deadline);
      },
      [&](int bound_port) {
        std::printf("routing %zu shards on %s:%d\n", router.num_shards(),
                    front.host.c_str(), bound_port);
      },
      [&router] {
        router.Stop();
        return 0;
      });
}

/// `add` subcommand: append one add record to a live directory's WAL
/// without starting a server. The next live serve (or compact) replays
/// it — handy for scripting ingest and for crash-recovery smoke tests.
int CommandAdd(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string dir = argv[2];
  const std::string name = argv[3];
  std::string text;
  for (int i = 4; i < argc; ++i) {
    if (!text.empty()) text += ' ';
    text += argv[i];
  }

  auto base = lsi::live::CountTsvDocuments(dir + "/corpus.tsv");
  if (!base.ok()) {
    std::fprintf(stderr, "corpus: %s\n", base.status().ToString().c_str());
    return 1;
  }
  auto wal = lsi::live::Wal::Open(dir + "/wal.log", base.value());
  if (!wal.ok()) {
    std::fprintf(stderr, "wal: %s\n", wal.status().ToString().c_str());
    return 1;
  }
  auto seq = (*wal)->Append(lsi::live::WalOp::kAdd, name, text);
  if (!seq.ok()) {
    std::fprintf(stderr, "append: %s\n", seq.status().ToString().c_str());
    return 1;
  }
  if (auto closed = (*wal)->Close(); !closed.ok()) {
    std::fprintf(stderr, "close: %s\n", closed.ToString().c_str());
    return 1;
  }
  std::printf("appended \"%s\" as record %llu (wal now %zu records over "
              "%zu base documents)\n",
              name.c_str(), static_cast<unsigned long long>(seq.value()),
              (*wal)->record_count(), (*wal)->base_documents());
  return 0;
}

/// `compact` subcommand: fold the WAL into corpus.tsv and reset it.
int CommandCompact(int argc, char** argv) {
  if (argc < 3) return Usage();
  const char* dir = nullptr;
  bool reset_only = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reset-wal") == 0) {
      reset_only = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown compact flag: %s\n", argv[i]);
      return 2;
    } else if (dir == nullptr) {
      dir = argv[i];
    } else {
      return Usage();
    }
  }
  if (dir == nullptr) return Usage();
  const std::string corpus_path = std::string(dir) + "/corpus.tsv";
  const std::string wal_path = std::string(dir) + "/wal.log";
  auto stats = reset_only ? lsi::live::ResetWal(corpus_path, wal_path)
                          : lsi::live::CompactLive(corpus_path, wal_path);
  if (!stats.ok()) {
    std::fprintf(stderr, "compact: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu base documents + %zu wal records -> %zu documents"
              "%s\n",
              reset_only ? "reset" : "compacted", stats->base_documents,
              stats->replayed_records, stats->output_documents,
              stats->truncated_bytes > 0 ? " (torn tail truncated)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --stats[=fmt] anywhere on the command line; positional
  // arguments keep their usual slots.
  lsi::obs::ExportFormat dump_format = lsi::obs::FormatFromEnv();
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      dump_format = lsi::obs::ExportFormat::kJson;
      continue;
    }
    if (std::strncmp(argv[i], "--stats=", 8) == 0) {
      dump_format = lsi::obs::ParseExportFormat(argv[i] + 8);
      if (dump_format == lsi::obs::ExportFormat::kNone) {
        std::fprintf(stderr, "unknown stats format: %s\n", argv[i] + 8);
        return 2;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      std::size_t threads = lsi::par::internal::ParseThreadsEnv(argv[i] + 10);
      if (threads == 0 && std::strcmp(argv[i] + 10, "0") != 0) {
        std::fprintf(stderr, "bad thread count: %s\n", argv[i] + 10);
        return 2;
      }
      lsi::par::SetThreads(threads);
      continue;
    }
    args.push_back(argv[i]);
  }
  int args_count = static_cast<int>(args.size());
  char** args_data = args.data();

  if (args_count < 2) return Usage();
  int code;
  if (std::strcmp(args_data[1], "index") == 0) {
    code = CommandIndex(args_count, args_data);
  } else if (std::strcmp(args_data[1], "query") == 0) {
    code = CommandQuery(args_count, args_data);
  } else if (std::strcmp(args_data[1], "similar") == 0) {
    code = CommandSimilar(args_count, args_data);
  } else if (std::strcmp(args_data[1], "related") == 0) {
    code = CommandRelated(args_count, args_data);
  } else if (std::strcmp(args_data[1], "info") == 0) {
    code = CommandInfo(args_count, args_data);
  } else if (std::strcmp(args_data[1], "simd") == 0) {
    code = CommandSimd();
  } else if (std::strcmp(args_data[1], "stats") == 0) {
    code = CommandStats(args_count, args_data, &dump_format);
  } else if (std::strcmp(args_data[1], "serve") == 0) {
    code = CommandServe(args_count, args_data);
  } else if (std::strcmp(args_data[1], "route") == 0) {
    code = CommandRoute(args_count, args_data);
  } else if (std::strcmp(args_data[1], "add") == 0) {
    code = CommandAdd(args_count, args_data);
  } else if (std::strcmp(args_data[1], "compact") == 0) {
    code = CommandCompact(args_count, args_data);
  } else {
    return Usage();
  }

  if (code == 0 && dump_format != lsi::obs::ExportFormat::kNone) {
    std::string rendered = lsi::obs::Export(dump_format);
    // Scripts parse this dump; a swallowed write error (closed pipe,
    // full disk) must not masquerade as a successful run.
    if (std::fputs(rendered.c_str(), stdout) == EOF ||
        std::fflush(stdout) != 0) {
      std::fprintf(stderr, "stats: writing metrics dump to stdout failed\n");
      return 1;
    }
  }
  return code;
}
