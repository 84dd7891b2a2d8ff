#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace lsi::serve {
namespace {

/// Minimal blocking test client: one TCP connection to the server.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads one complete HTTP response (headers + Content-Length body).
  std::string ReadResponse() {
    while (true) {
      const std::size_t head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::size_t body_len = ContentLength(buffer_.substr(0, head_end));
        const std::size_t total = head_end + 4 + body_len;
        if (buffer_.size() >= total) {
          std::string response = buffer_.substr(0, total);
          buffer_.erase(0, total);
          return response;
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::exchange(buffer_, "");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Makes every later recv give up after `timeout`, so a test that
  /// waits on a starved connection fails instead of hanging.
  void SetReadTimeout(std::chrono::milliseconds timeout) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    ASSERT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv), 0);
  }

  /// True once the server has closed its end (recv returns 0).
  bool ServerClosed() {
    char chunk[256];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    return n == 0;
  }

 private:
  static std::size_t ContentLength(const std::string& head) {
    // Case-insensitive search is overkill: the server emits this exact
    // spelling.
    const std::size_t at = head.find("Content-Length: ");
    if (at == std::string::npos) return 0;
    return static_cast<std::size_t>(
        std::strtoul(head.c_str() + at + 16, nullptr, 10));
  }

  int fd_ = -1;
  std::string buffer_;
};

int StatusOf(const std::string& response) {
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

ServerOptions LoopbackOptions() {
  ServerOptions options;
  options.port = 0;  // Ephemeral.
  options.host = "127.0.0.1";
  options.threads = 2;
  return options;
}

HttpServer::Handler EchoHandler() {
  return [](const HttpRequest& request,
            std::chrono::steady_clock::time_point) {
    HttpResponse response;
    response.content_type = "text/plain; charset=utf-8";
    response.body = request.method + " " + request.target + "\n" + request.body;
    return response;
  };
}

TEST(HttpServerTest, ServesRequestsOnEphemeralPort) {
  HttpServer server(EchoHandler(), LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  TestClient client(server.port());
  client.Send("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  const std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("GET /healthz"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, KeepAliveServesSequentialAndPipelinedRequests) {
  HttpServer server(EchoHandler(), LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());

  // Sequential reuse of one connection.
  for (int i = 0; i < 3; ++i) {
    client.Send("POST /echo HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd");
    const std::string response = client.ReadResponse();
    EXPECT_EQ(StatusOf(response), 200) << i;
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos) << i;
    EXPECT_NE(response.find("abcd"), std::string::npos) << i;
  }

  // Two requests in one send: both must be answered, in order.
  client.Send("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  EXPECT_NE(client.ReadResponse().find("GET /a"), std::string::npos);
  EXPECT_NE(client.ReadResponse().find("GET /b"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, MalformedRequestGets400AndServerSurvives) {
  HttpServer server(EchoHandler(), LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    TestClient bad(server.port());
    bad.Send("THIS IS NOT HTTP\r\n\r\n");
    const std::string response = bad.ReadResponse();
    EXPECT_EQ(StatusOf(response), 400);
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
    EXPECT_TRUE(bad.ServerClosed());
  }
  // The worker thread survived; a fresh connection is served normally.
  TestClient good(server.port());
  good.Send("GET /ok HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(good.ReadResponse()), 200);
  server.Stop();
}

TEST(HttpServerTest, OversizedHeaderGets431) {
  ServerOptions options = LoopbackOptions();
  options.limits.max_header_bytes = 256;
  HttpServer server(EchoHandler(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  client.Send("GET / HTTP/1.1\r\nX-Big: " + std::string(1024, 'a') + "\r\n\r\n");
  EXPECT_EQ(StatusOf(client.ReadResponse()), 431);
  server.Stop();
}

TEST(HttpServerTest, HandlerExceptionBecomes500NotACrash) {
  std::size_t calls = 0;
  HttpServer server(
      [&calls](const HttpRequest& request,
               std::chrono::steady_clock::time_point) -> HttpResponse {
        ++calls;
        if (request.target == "/boom") throw std::runtime_error("kaboom");
        return HttpResponse{};
      },
      LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    TestClient client(server.port());
    client.Send("GET /boom HTTP/1.1\r\n\r\n");
    EXPECT_EQ(StatusOf(client.ReadResponse()), 500);
  }
  TestClient client(server.port());
  client.Send("GET /fine HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(client.ReadResponse()), 200);
  EXPECT_EQ(calls, 2u);
  server.Stop();
}

TEST(HttpServerTest, HandlerReceivesConfiguredDeadline) {
  ServerOptions options = LoopbackOptions();
  options.deadline = std::chrono::milliseconds(1500);
  std::chrono::milliseconds observed{0};
  HttpServer server(
      [&observed](const HttpRequest&,
                  std::chrono::steady_clock::time_point deadline) {
        observed = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        return HttpResponse{};
      },
      options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  client.Send("GET / HTTP/1.1\r\n\r\n");
  client.ReadResponse();
  EXPECT_GT(observed.count(), 1000);
  EXPECT_LE(observed.count(), 1500);
  server.Stop();
}

TEST(HttpServerTest, StopDrainsAndIsIdempotent) {
  HttpServer server(EchoHandler(), LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  // Park an idle keep-alive connection; Stop must close it rather than
  // hang waiting for the idle timeout.
  TestClient idle(server.port());
  idle.Send("GET /warm HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(idle.ReadResponse()), 200);

  const auto begin = std::chrono::steady_clock::now();
  server.Stop();
  server.Stop();  // Idempotent.
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_TRUE(idle.ServerClosed());
}

// Stop wakes the accept loop and an idle keep-alive worker at once,
// not at their next poll timeout.
TEST(HttpServerTest, StopIsPromptWithIdleKeepAliveConnection) {
  HttpServer server(EchoHandler(), LoopbackOptions());
  ASSERT_TRUE(server.Start().ok());
  TestClient idle(server.port());
  idle.Send("GET /warm HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(idle.ReadResponse()), 200);  // Now idle on keep-alive.

  const auto begin = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
  EXPECT_TRUE(idle.ServerClosed());
}

TEST(HttpServerTest, FullAdmissionQueueAnswers503WithRetryAfter) {
  ServerOptions options = LoopbackOptions();
  options.max_queued_connections = 0;  // No connection is ever admitted.
  bool handled = false;
  HttpServer server(
      [&handled](const HttpRequest&, std::chrono::steady_clock::time_point) {
        handled = true;
        return HttpResponse{};
      },
      options);
  ASSERT_TRUE(server.Start().ok());
  // The answer comes at accept time, before the server reads a byte, so
  // the client need not send one.
  TestClient client(server.port());
  const std::string response = client.ReadResponse();
  EXPECT_EQ(StatusOf(response), 503) << response;
  EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"error\""), std::string::npos) << response;
  EXPECT_TRUE(client.ServerClosed());
  server.Stop();
  EXPECT_FALSE(handled);  // Shed before any parsing or handler work.
}

// An idle keep-alive connection must not hold the only worker while
// another client waits: the worker gives the idle connection up for the
// queued one instead of sitting out the 30 s idle timeout.
TEST(HttpServerTest, IdleKeepAliveYieldsWorkerToQueuedConnection) {
  ServerOptions options = LoopbackOptions();
  options.threads = 1;
  HttpServer server(EchoHandler(), options);
  ASSERT_TRUE(server.Start().ok());

  TestClient idle(server.port());
  idle.Send("GET /first HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(idle.ReadResponse()), 200);  // Now idle on keep-alive.

  TestClient waiting(server.port());
  waiting.SetReadTimeout(std::chrono::seconds(5));
  const auto begin = std::chrono::steady_clock::now();
  waiting.Send("GET /second HTTP/1.1\r\n\r\n");
  const std::string response = waiting.ReadResponse();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_NE(response.find("GET /second"), std::string::npos) << response;
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
  // The yielded connection was closed, not left dangling.
  idle.SetReadTimeout(std::chrono::seconds(5));
  EXPECT_TRUE(idle.ServerClosed());
  server.Stop();
}

// A keep-alive client that sends its next request right after each
// response is not idle: while another connection queues, its worker
// keeps serving it, and yields only once it has gone quiet.
TEST(HttpServerTest, BackToBackKeepAliveRequestsAreNotYielded) {
  ServerOptions options = LoopbackOptions();
  options.threads = 1;
  HttpServer server(EchoHandler(), options);
  ASSERT_TRUE(server.Start().ok());

  TestClient busy(server.port());
  busy.SetReadTimeout(std::chrono::seconds(5));
  busy.Send("GET /first HTTP/1.1\r\n\r\n");
  ASSERT_EQ(StatusOf(busy.ReadResponse()), 200);

  TestClient waiting(server.port());
  waiting.SetReadTimeout(std::chrono::seconds(5));
  const auto begin = std::chrono::steady_clock::now();
  waiting.Send("GET /queued HTTP/1.1\r\n\r\n");
  // Let the queued connection raise the yield signal before the next
  // request goes out.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  int answered = 0;
  while (std::chrono::steady_clock::now() - begin <
         std::chrono::milliseconds(250)) {
    busy.Send("GET /next HTTP/1.1\r\n\r\n");
    const std::string response = busy.ReadResponse();
    ASSERT_EQ(StatusOf(response), 200)
        << "request " << answered + 2 << " got: " << response;
    ++answered;
  }
  EXPECT_GT(answered, 0);

  // Now quiet: the worker yields the busy connection to the queued one.
  const std::string queued = waiting.ReadResponse();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_EQ(StatusOf(queued), 200) << queued;
  EXPECT_NE(queued.find("GET /queued"), std::string::npos) << queued;
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
  EXPECT_TRUE(busy.ServerClosed());
  server.Stop();
}

// With a worker free, nobody needs the idle connection's worker: the
// idle client keeps its connection.
TEST(HttpServerTest, IdleKeepAliveIsKeptWhileAWorkerIsFree) {
  HttpServer server(EchoHandler(), LoopbackOptions());  // Two workers.
  ASSERT_TRUE(server.Start().ok());
  TestClient idle(server.port());
  idle.SetReadTimeout(std::chrono::seconds(5));
  idle.Send("GET /first HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(idle.ReadResponse()), 200);
  {
    TestClient other(server.port());
    other.SetReadTimeout(std::chrono::seconds(5));
    other.Send("GET /other HTTP/1.1\r\n\r\n");
    EXPECT_EQ(StatusOf(other.ReadResponse()), 200);
  }
  idle.Send("GET /again HTTP/1.1\r\n\r\n");
  const std::string again = idle.ReadResponse();
  EXPECT_EQ(StatusOf(again), 200) << again;
  EXPECT_NE(again.find("GET /again"), std::string::npos) << again;
  server.Stop();
}

// A connection with part of a request buffered is mid-request, not idle:
// the worker finishes it before it serves anyone else.
TEST(HttpServerTest, PartialRequestIsNotYielded) {
  ServerOptions options = LoopbackOptions();
  options.threads = 1;
  HttpServer server(EchoHandler(), options);
  ASSERT_TRUE(server.Start().ok());

  TestClient slow(server.port());
  slow.SetReadTimeout(std::chrono::seconds(5));
  slow.Send("POST /slow HTTP/1.1\r\nContent-Length: 4\r\n\r\nab");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  TestClient waiting(server.port());
  waiting.SetReadTimeout(std::chrono::seconds(5));
  waiting.Send("GET /second HTTP/1.1\r\n\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  slow.Send("cd");
  const std::string first = slow.ReadResponse();
  EXPECT_EQ(StatusOf(first), 200) << first;
  EXPECT_NE(first.find("abcd"), std::string::npos) << first;
  const std::string second = waiting.ReadResponse();
  EXPECT_EQ(StatusOf(second), 200) << second;
  server.Stop();
}

TEST(HttpServerTest, RestartOnSamePortAfterStop) {
  ServerOptions options = LoopbackOptions();
  int port = 0;
  {
    HttpServer server(EchoHandler(), options);
    ASSERT_TRUE(server.Start().ok());
    port = server.port();
    server.Stop();
  }
  // SO_REUSEADDR lets a fresh server claim the port immediately.
  options.port = port;
  HttpServer server(EchoHandler(), options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(port);
  client.Send("GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusOf(client.ReadResponse()), 200);
  server.Stop();
}

}  // namespace
}  // namespace lsi::serve
