#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "serve/retry.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "serve/json.h"

namespace lsi::serve {
namespace {

/// How often blocked poll() calls wake to re-check the stopping flag.
constexpr int kPollTickMs = 100;

/// Writes the whole buffer, riding out EINTR and short writes. False on
/// a dead peer (EPIPE/ECONNRESET — routine, not an error).
bool SendAll(int fd, std::string_view data) {
  // Simulated dead peer: the caller closes the connection, exactly as
  // for a real EPIPE.
  if (LSI_FAULT_POINT("serve.conn.send")) return false;
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Counts `response` into lsi.serve.requests.{2xx,4xx,5xx}, resolved
/// once per process.
void CountResponse(const HttpResponse& response) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& ok = registry.GetCounter("lsi.serve.requests.2xx");
  static obs::Counter& client_error =
      registry.GetCounter("lsi.serve.requests.4xx");
  static obs::Counter& server_error =
      registry.GetCounter("lsi.serve.requests.5xx");
  (response.status >= 500   ? server_error
   : response.status >= 400 ? client_error
                            : ok)
      .Increment();
}

HttpResponse ParseErrorResponse(const HttpParser& parser) {
  HttpResponse response;
  response.status = parser.error_status();
  response.content_type = "application/json; charset=utf-8";
  response.body = "{\"error\":" + JsonQuote(parser.error()) + "}";
  response.close = true;
  return response;
}

}  // namespace

HttpServer::HttpServer(Handler handler, ServerOptions options)
    : handler_(std::move(handler)), options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const int bind_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("bind: ") +
                            std::strerror(bind_errno));
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const int listen_errno = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("listen: ") +
                            std::strerror(listen_errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  started_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  const std::size_t workers = options_.threads == 0 ? 1 : options_.threads;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  queue_cv_.NotifyAll();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Workers drain pending_fds_ (answering whatever those clients send,
  // with Connection: close) and exit once the queue is empty.
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
}

std::size_t HttpServer::queue_depth() const {
  MutexLock lock(queue_mutex_);
  return pending_fds_.size();
}

void HttpServer::AcceptLoop() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& accepted = registry.GetCounter("lsi.serve.connections");
  obs::Counter& rejected =
      registry.GetCounter("lsi.serve.admission_rejected");
  obs::Gauge& depth = registry.GetGauge("lsi.serve.queue_depth");

  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready <= 0) continue;  // Timeout tick or EINTR: re-check stopping.
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    accepted.Increment();

    bool admit = false;
    // The fault point simulates overload: refused exactly like a full
    // queue, so clients see the real 503 + Retry-After path.
    if (!LSI_FAULT_POINT("serve.server.admit")) {
      MutexLock lock(queue_mutex_);
      if (pending_fds_.size() < options_.max_queued_connections) {
        pending_fds_.push_back(fd);
        depth.Set(static_cast<double>(pending_fds_.size()));
        admit = true;
      }
    }
    if (admit) {
      queue_cv_.NotifyOne();
    } else {
      // Admission control: shed load before any parsing or engine work.
      rejected.Increment();
      HttpResponse response;
      response.status = 503;
      response.content_type = "application/json; charset=utf-8";
      response.body = "{\"error\":\"server overloaded\"}";
      response.extra_headers.emplace_back("Retry-After", "1");
      response.close = true;
      SendAll(fd, SerializeResponse(response, false));
      ::close(fd);
    }
  }
}

void HttpServer::WorkerLoop() {
  obs::Gauge& depth =
      obs::MetricsRegistry::Global().GetGauge("lsi.serve.queue_depth");
  while (true) {
    int fd = -1;
    {
      MutexLock lock(queue_mutex_);
      while (!stopping_.load(std::memory_order_relaxed) &&
             pending_fds_.empty()) {
        queue_cv_.Wait(lock);
      }
      if (pending_fds_.empty()) return;  // Stopping and fully drained.
      fd = pending_fds_.front();
      pending_fds_.pop_front();
      depth.Set(static_cast<double>(pending_fds_.size()));
    }
    ServeConnection(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& parse_errors = registry.GetCounter("lsi.serve.parse_errors");
  obs::Counter& deadline_header =
      registry.GetCounter("lsi.serve.deadline_header");
  obs::Histogram& latency =
      registry.GetHistogram("lsi.serve.request.latency_ms");
  obs::Gauge& in_flight = registry.GetGauge("lsi.serve.in_flight");

  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);

  HttpParser parser(options_.limits);
  char buffer[16 * 1024];
  auto last_activity = std::chrono::steady_clock::now();

  while (true) {
    // Read until the parser completes a request (it may already hold a
    // pipelined one from the previous iteration's reads).
    while (parser.state() == HttpParser::State::kNeedMore) {
      const bool stopping = stopping_.load(std::memory_order_relaxed);
      // Drain rule: an idle keep-alive connection (no partial request
      // buffered) is closed as soon as we are stopping; a connection
      // mid-request gets to finish sending it.
      if (stopping && !parser.HasPartialData()) {
        ::close(fd);
        return;
      }
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, kPollTickMs);
      if (ready < 0 && errno != EINTR) {
        ::close(fd);
        return;
      }
      if (ready <= 0) {
        const auto idle = std::chrono::steady_clock::now() - last_activity;
        if (idle >= options_.idle_timeout) {
          ::close(fd);  // Stalled sender or abandoned keep-alive.
          return;
        }
        continue;
      }
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n == 0) {  // Peer closed.
        ::close(fd);
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        return;
      }
      last_activity = std::chrono::steady_clock::now();
      parser.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }

    if (parser.state() == HttpParser::State::kError) {
      // Malformed input gets a best-effort diagnostic and a clean close;
      // the worker thread itself is never at risk.
      parse_errors.Increment();
      const HttpResponse response = ParseErrorResponse(parser);
      CountResponse(response);
      SendAll(fd, SerializeResponse(response, false));
      ::close(fd);
      return;
    }

    const HttpRequest request = parser.TakeRequest();
    const auto now = std::chrono::steady_clock::now();
    auto deadline = now + options_.deadline;
    // Deadline propagation: an upstream caller (the shard router) sends
    // the budget it has left in X-Lsi-Deadline-Ms; honoring the smaller
    // of that and our own deadline sheds work the caller has already
    // given up on (the handler answers 504, exactly as for a local
    // deadline). The header can only shrink the budget, never grow it.
    if (const std::string* budget = request.FindHeader("x-lsi-deadline-ms")) {
      const long budget_ms = ParseDeadlineMs(*budget);
      if (budget_ms >= 0) {
        deadline = std::min(deadline,
                            now + std::chrono::milliseconds(budget_ms));
        deadline_header.Increment();
      }
    }
    const bool stopping = stopping_.load(std::memory_order_relaxed);
    const bool keep_alive = request.keep_alive && !stopping;

    Timer timer;
    in_flight.Add(1.0);
    HttpResponse response;
    try {
      response = handler_(request, deadline);
    } catch (const std::exception& e) {
      // A handler bug must not take down the serving thread.
      LSI_LOG(Error) << "serve: handler exception: " << e.what();
      response.status = 500;
      response.content_type = "application/json; charset=utf-8";
      response.body = "{\"error\":\"internal error\"}";
    }
    in_flight.Add(-1.0);
    latency.Observe(timer.ElapsedMillis());
    CountResponse(response);

    if (!SendAll(fd, SerializeResponse(response, keep_alive))) {
      ::close(fd);
      return;
    }

    if (!keep_alive || response.close) {
      ::close(fd);
      return;
    }
    last_activity = std::chrono::steady_clock::now();
  }
}

}  // namespace lsi::serve
