#ifndef LSI_SERVE_SERVER_H_
#define LSI_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/http.h"

namespace lsi::serve {

/// Transport options for HttpServer.
struct ServerOptions {
  /// TCP port to bind; 0 picks an ephemeral port (see port()).
  int port = 8080;
  /// Address to bind, IPv4 dotted-quad. "0.0.0.0" serves externally;
  /// tests bind loopback.
  std::string host = "0.0.0.0";
  /// Connection worker threads (each drives one connection at a time).
  std::size_t threads = 4;
  /// Admission bound: accepted connections waiting for a worker beyond
  /// this are answered 503 + Retry-After immediately and closed.
  std::size_t max_queued_connections = 64;
  /// Per-request processing deadline, measured from the moment the
  /// request is fully parsed; exceeding it answers 504.
  std::chrono::milliseconds deadline{2000};
  /// Idle keep-alive connections are closed after this long without a
  /// byte. Also bounds how long a stalled sender can hold a worker.
  std::chrono::milliseconds idle_timeout{30000};
  /// listen(2) backlog.
  int backlog = 128;
  HttpLimits limits;
};

/// A dependency-free POSIX-socket HTTP/1.1 server.
///
/// Threading model: one accept thread pushes connections into a bounded
/// queue drained by a fixed set of worker threads; each worker owns one
/// connection at a time and loops request -> handler -> response over
/// keep-alive. There is deliberately no per-connection thread creation
/// and no event loop — the bounded queue gives natural admission
/// control, and each worker runs its requests' engine work itself.
///
/// Overload and failure semantics:
///   - queue full                -> 503 + Retry-After, connection closed
///                                  (fault point serve.server.admit)
///   - handler past the deadline -> 504 (handler enforces it; see below)
///   - unparseable request       -> 400/413/431/501, connection closed,
///                                  worker thread lives on
///   - Stop()                    -> stops accepting, finishes in-flight
///                                  requests with Connection: close,
///                                  then joins every thread
///
/// The handler receives the parsed request plus the absolute deadline
/// and answers 504 once it has passed (LsiService checks it before and
/// after each engine call).
///
/// Emits lsi.serve.{connections,requests.*,admission_rejected,
/// parse_errors} counters, the lsi.serve.request.latency_ms histogram,
/// and lsi.serve.{queue_depth,in_flight} gauges.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(
      const HttpRequest&, std::chrono::steady_clock::time_point deadline)>;

  HttpServer(Handler handler, ServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the accept + worker threads.
  Status Start();

  /// The bound port (after Start); useful with options.port == 0.
  int port() const { return port_; }

  /// Graceful shutdown: closes the listen socket, lets workers finish
  /// the requests they are processing (responses get Connection: close),
  /// answers queued-but-unserved connections, then joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  std::size_t queue_depth() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);

  Handler handler_;
  ServerOptions options_;
  // listen_fd_/port_/started_ are written by Start()/Stop() only, before
  // the threads spawn and after they join; workers read listen_fd_ never
  // and the accept thread's reads are ordered by thread creation/join.
  int listen_fd_ = -1;
  int port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  mutable Mutex queue_mutex_{
      LSI_LOCK_RANK("serve.server.queue", lock_rank::kServeServerQueue)};
  CondVar queue_cv_;
  std::deque<int> pending_fds_ LSI_GUARDED_BY(queue_mutex_);

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace lsi::serve

#endif  // LSI_SERVE_SERVER_H_
