#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/engine.h"
#include "serve/server.h"
#include "serve/service.h"
#include "text/analyzer.h"

namespace lsi::serve {
namespace {

using core::LsiEngine;

text::Corpus SmallCorpus() {
  text::Analyzer analyzer;
  text::Corpus corpus;
  corpus.AddDocument("space",
                     analyzer.Analyze("the rocket launched toward the moon "
                                      "carrying astronauts into orbit"));
  corpus.AddDocument("cars",
                     analyzer.Analyze("the engine of the car roared as the "
                                      "automobile sped down the road"));
  corpus.AddDocument("food",
                     analyzer.Analyze("simmer the garlic and tomatoes into "
                                      "a sauce for the fresh pasta"));
  return corpus;
}

LsiEngine BuildEngine() {
  core::LsiEngineOptions options;
  options.rank = 2;
  options.solver = core::SvdSolver::kJacobi;
  auto engine = LsiEngine::Build(SmallCorpus(), options);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  return std::move(engine).value();
}

/// Minimal blocking test client (one TCP connection), as in
/// server_test.cc.
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

  /// Reads one complete HTTP response (headers + Content-Length body);
  /// returns whatever arrived if the server closes early.
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

 private:
  static std::size_t ContentLength(const std::string& head) {
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

std::string QueryRequest() {
  const std::string body = R"({"query": "rocket moon", "top_k": 2})";
  return "POST /query HTTP/1.1\r\nHost: t\r\nContent-Type: application/json"
         "\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Live-server fault drill: a fault armed on the server's admission
/// path must surface to HTTP clients as a well-formed 503 with a
/// Retry-After hint, and the server must answer normally again the
/// moment the fault clears.
TEST(ServeFaultTest, AdmissionFaultYields503ThenRecovers) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  faults.DisarmAll();

  LsiEngine engine = BuildEngine();
  LsiService service(engine);
  ServerOptions options;
  options.port = 0;  // Ephemeral.
  options.host = "127.0.0.1";
  options.threads = 2;
  HttpServer server(
      [&service](const HttpRequest& request,
                 std::chrono::steady_clock::time_point deadline) {
        return service.Handle(request, deadline);
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(faults.ArmFromString("serve.server.admit=once@1").ok());
  {
    TestClient client(server.port());
    client.Send(QueryRequest());
    const std::string response = client.ReadResponse();
    EXPECT_EQ(StatusOf(response), 503) << response;
    EXPECT_NE(response.find("Retry-After:"), std::string::npos) << response;
    // Well-formed JSON error body, not a torn or empty response.
    EXPECT_NE(response.find("\"error\""), std::string::npos) << response;
  }
  faults.DisarmAll();
  // The refused request never reached the service, so nothing is cached.
  EXPECT_EQ(service.cache().stats().entries, 0u);
  EXPECT_EQ(service.cache().stats().misses, 0u);

  // The same query (and a second one) must now succeed: the server kept
  // accepting, and the first success is a real engine answer.
  for (int i = 0; i < 2; ++i) {
    TestClient client(server.port());
    client.Send(QueryRequest());
    const std::string response = client.ReadResponse();
    EXPECT_EQ(StatusOf(response), 200) << response;
    EXPECT_NE(response.find("\"hits\""), std::string::npos) << response;
  }
  EXPECT_EQ(service.cache().stats().misses, 1u);
  EXPECT_EQ(service.cache().stats().hits, 1u);

  server.Stop();
  service.Shutdown();
}

/// A dead peer mid-response (simulated by serve.conn.send) must only
/// cost that one connection: the next connection works.
TEST(ServeFaultTest, SendFaultDropsOnlyThatConnection) {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  faults.DisarmAll();

  LsiEngine engine = BuildEngine();
  LsiService service(engine);
  ServerOptions options;
  options.port = 0;
  options.host = "127.0.0.1";
  options.threads = 2;
  HttpServer server(
      [&service](const HttpRequest& request,
                 std::chrono::steady_clock::time_point deadline) {
        return service.Handle(request, deadline);
      },
      options);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(faults.ArmFromString("serve.conn.send=once@1").ok());
  {
    TestClient client(server.port());
    client.Send(QueryRequest());
    // The injected send failure means no (complete) response arrives;
    // the server closes the connection instead of crashing.
    const std::string response = client.ReadResponse();
    EXPECT_NE(StatusOf(response), 200) << response;
  }
  faults.DisarmAll();

  TestClient client(server.port());
  client.Send(QueryRequest());
  EXPECT_EQ(StatusOf(client.ReadResponse()), 200);

  server.Stop();
  service.Shutdown();
}

}  // namespace
}  // namespace lsi::serve
