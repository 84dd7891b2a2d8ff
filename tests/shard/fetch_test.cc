#include "shard/fetch.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

namespace lsi::shard {
namespace {

/// A loopback peer that answers one request per connection with a
/// canned reply, then either waits for the client to close or closes
/// its end at once.
class CannedServer {
 public:
  CannedServer(std::string reply, bool close_after_reply)
      : reply_(std::move(reply)), close_after_reply_(close_after_reply) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~CannedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  CannedServer(const CannedServer&) = delete;
  CannedServer& operator=(const CannedServer&) = delete;

  int port() const { return port_; }

 private:
  void Serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::string request;
    char chunk[1024];
    while (request.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      request.append(chunk, static_cast<std::size_t>(n));
    }
    ::send(fd, reply_.data(), reply_.size(), MSG_NOSIGNAL);
    if (!close_after_reply_) {
      while (::recv(fd, chunk, sizeof chunk, 0) > 0) {
      }
    }
    ::close(fd);
  }

  std::string reply_;
  bool close_after_reply_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

constexpr char kRequest[] = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

/// Steps `fetch` until it finishes or 2 s pass.
void Drive(Fetch& fetch) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (fetch.active() && std::chrono::steady_clock::now() < give_up) {
    pollfd pfd{fetch.fd(), fetch.poll_events(), 0};
    ::poll(&pfd, 1, 50);
    fetch.Step();
  }
}

/// Runs one fetch against a server answering `reply`; returns what
/// ReleaseSocket hands back (closing it) and the finished fetch state.
std::pair<bool, Fetch::State> FetchAndRelease(const std::string& reply) {
  CannedServer server(reply, /*close_after_reply=*/false);
  Fetch fetch;
  EXPECT_TRUE(fetch.Start("127.0.0.1", server.port(), kRequest).ok());
  Drive(fetch);
  const Fetch::State state = fetch.state();
  const int fd = fetch.ReleaseSocket();
  if (fd >= 0) ::close(fd);
  return {fd >= 0, state};
}

TEST(FetchTest, HandsBackSocketOnlyForExactlyFramedKeepAliveReply) {
  EXPECT_EQ(FetchAndRelease("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                            "Connection: keep-alive\r\n\r\nok"),
            std::make_pair(true, Fetch::State::kDone));
  EXPECT_EQ(FetchAndRelease("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                            "Connection: close\r\n\r\nok"),
            std::make_pair(false, Fetch::State::kDone));
  // Bytes past the body would be read as the next reply's start.
  EXPECT_EQ(FetchAndRelease("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n"
                            "okHTTP/1.1 200 OK\r\n"),
            std::make_pair(false, Fetch::State::kDone));
  // Without Content-Length the body's end is unknown.
  EXPECT_EQ(FetchAndRelease("HTTP/1.1 200 OK\r\n\r\n"),
            std::make_pair(false, Fetch::State::kDone));
}

TEST(FetchTest, EpochHeaderMarksLiveReply) {
  CannedServer server(
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Lsi-Epoch: 42\r\n\r\nok",
      /*close_after_reply=*/false);
  Fetch fetch;
  ASSERT_TRUE(fetch.Start("127.0.0.1", server.port(), kRequest).ok());
  Drive(fetch);
  ASSERT_EQ(fetch.state(), Fetch::State::kDone) << fetch.error();
  EXPECT_EQ(fetch.response().body, "ok");
  EXPECT_TRUE(fetch.response().live);
  fetch.Abort();
}

// A pooled socket whose peer has closed fails before any response byte:
// that is "stale", and only a resumed socket can be.
TEST(FetchTest, ResumedSocketClosedByPeerIsStale) {
  int pooled = -1;
  {
    CannedServer server("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
                        /*close_after_reply=*/true);
    Fetch fetch;
    ASSERT_TRUE(fetch.Start("127.0.0.1", server.port(), kRequest).ok());
    Drive(fetch);
    ASSERT_EQ(fetch.state(), Fetch::State::kDone) << fetch.error();
    EXPECT_FALSE(fetch.stale());
    pooled = fetch.ReleaseSocket();
    ASSERT_GE(pooled, 0);
  }  // The server has closed its end.

  Fetch resumed;
  resumed.StartOn(pooled, kRequest);
  Drive(resumed);
  EXPECT_EQ(resumed.state(), Fetch::State::kFailed);
  EXPECT_TRUE(resumed.stale()) << resumed.error();
  resumed.Abort();
  EXPECT_FALSE(resumed.stale());
}

}  // namespace
}  // namespace lsi::shard
