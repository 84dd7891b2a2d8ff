#include "shard/fetch.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "serve/retry.h"

namespace lsi::shard {
namespace {

std::string LowerCopy(std::string_view in) {
  std::string out(in);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

}  // namespace

Status Fetch::Start(const std::string& host, int port, std::string request) {
  Abort();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("shard: backend host must be numeric IPv4: " +
                                   host);
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("shard: socket: ") +
                            std::strerror(errno));
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  const int enable = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
  Reset(std::move(request), /*reused=*/false);

  const int rc =
      ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc == 0) {
    state_ = State::kSending;
  } else if (errno == EINPROGRESS) {
    state_ = State::kConnecting;
  } else {
    Fail(std::string("connect: ") + std::strerror(errno));
  }
  return Status::OK();
}

void Fetch::StartOn(int fd, std::string request) {
  Abort();
  fd_ = fd;
  Reset(std::move(request), /*reused=*/true);
  state_ = State::kSending;
}

void Fetch::Reset(std::string request, bool reused) {
  reused_ = reused;
  outgoing_ = std::move(request);
  incoming_.clear();
  head_end_ = std::string::npos;
  content_length_ = 0;
  has_content_length_ = false;
  connection_close_ = false;
  response_ = Response{};
  error_.clear();
}

short Fetch::poll_events() const {
  switch (state_) {
    case State::kConnecting:
    case State::kSending:
      return POLLOUT;
    case State::kReading:
      return POLLIN;
    default:
      return 0;
  }
}

void Fetch::Step() {
  if (state_ == State::kConnecting) {
    int soerr = 0;
    socklen_t len = sizeof soerr;
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      // Not writable yet is fine — poll will call us back; a real
      // connect error is terminal.
      if (soerr != 0 && soerr != EINPROGRESS) {
        Fail(std::string("connect: ") + std::strerror(soerr));
      }
      return;
    }
    state_ = State::kSending;
  }
  if (state_ == State::kSending) {
    while (!outgoing_.empty()) {
      const ssize_t n =
          ::send(fd_, outgoing_.data(), outgoing_.size(), MSG_NOSIGNAL);
      if (n > 0) {
        outgoing_.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      Fail(std::string("send: ") + std::strerror(errno));
      return;
    }
    state_ = State::kReading;
  }
  if (state_ == State::kReading) {
    char chunk[8192];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n > 0) {
        incoming_.append(chunk, static_cast<std::size_t>(n));
        if (incoming_.size() > 8 * 1024 * 1024) {
          Fail("response exceeds 8 MiB");
          return;
        }
        if (TryParse()) {
          state_ = State::kDone;
          // Keep the socket only if the next response on it cannot be
          // confused with this one.
          const bool reusable =
              has_content_length_ && !connection_close_ &&
              incoming_.size() == head_end_ + 4 + content_length_;
          if (!reusable) CloseSocket();
          return;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n == 0) {
        Fail("connection closed before response completed");
      } else {
        Fail(std::string("recv: ") + std::strerror(errno));
      }
      return;
    }
  }
}

bool Fetch::TryParse() {
  if (head_end_ == std::string::npos) {
    head_end_ = incoming_.find("\r\n\r\n");
    if (head_end_ == std::string::npos) return false;
    // Status line: HTTP/1.x NNN Reason.
    if (incoming_.compare(0, 5, "HTTP/") != 0) {
      Fail("malformed status line");
      return false;
    }
    const std::size_t sp = incoming_.find(' ');
    if (sp == std::string::npos || sp + 4 > head_end_) {
      Fail("malformed status line");
      return false;
    }
    response_.status = std::atoi(incoming_.c_str() + sp + 1);
    std::size_t line_start = incoming_.find("\r\n") + 2;
    while (line_start < head_end_) {
      std::size_t line_end = incoming_.find("\r\n", line_start);
      if (line_end == std::string::npos || line_end > head_end_) {
        line_end = head_end_;
      }
      const std::string line =
          LowerCopy(std::string_view(incoming_).substr(line_start,
                                                       line_end - line_start));
      if (line.compare(0, 15, "content-length:") == 0) {
        content_length_ = std::strtoul(line.c_str() + 15, nullptr, 10);
        has_content_length_ = true;
      } else if (line.compare(0, 12, "retry-after:") == 0) {
        response_.retry_after_ms =
            serve::ParseRetryAfterMs(std::string_view(line).substr(12));
      } else if (line.compare(0, 11, "connection:") == 0) {
        connection_close_ = line.find("close", 11) != std::string::npos;
      } else if (line.compare(0, 12, "x-lsi-epoch:") == 0) {
        response_.live = true;
      }
      line_start = line_end + 2;
    }
  }
  const std::size_t body_start = head_end_ + 4;
  if (incoming_.size() - body_start < content_length_) return false;
  response_.body = incoming_.substr(body_start, content_length_);
  return true;
}

int Fetch::ReleaseSocket() {
  if (state_ != State::kDone) {
    CloseSocket();
    return -1;
  }
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fetch::CloseSocket() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Fetch::Fail(std::string message) {
  error_ = std::move(message);
  CloseSocket();
  state_ = State::kFailed;
}

void Fetch::Abort() {
  CloseSocket();
  state_ = State::kIdle;
  outgoing_.clear();
  incoming_.clear();
}

}  // namespace lsi::shard
