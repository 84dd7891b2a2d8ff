#include "runner/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <strings.h>

namespace lsi::servebench {
namespace {

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
  return fd;
}

bool SendAll(int fd, const std::string& data) {
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

}  // namespace

std::string BuildRequest(const std::string& method, const std::string& path,
                         const std::string& body) {
  return method + " " + path +
         " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json"
         "\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

HttpReply HttpClient::Send(const std::string& method, const std::string& path,
                           const std::string& body) {
  const std::string request = BuildRequest(method, path, body);
  HttpReply reply;
  // No retry: a resent write could apply twice. A failed exchange is a
  // failed request, and the next one opens a fresh connection.
  if (fd_ < 0) fd_ = Connect(port_);
  if (fd_ >= 0 && Exchange(request, &reply)) return reply;
  Close();
  return HttpReply{};
}

bool HttpClient::Exchange(const std::string& request, HttpReply* reply) {
  if (!SendAll(fd_, request)) return false;
  std::string buffer;
  std::size_t head_end = std::string::npos;
  char chunk[16 * 1024];
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() > 64 * 1024) return false;
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  if (buffer.compare(0, 5, "HTTP/") != 0) return false;
  const std::size_t space = buffer.find(' ');
  if (space == std::string::npos || space > head_end) return false;
  const int status = std::atoi(buffer.c_str() + space + 1);

  std::size_t content_length = 0;
  bool keep_alive = true;
  std::size_t line = buffer.find("\r\n") + 2;
  while (line < head_end) {
    std::size_t end = buffer.find("\r\n", line);
    if (end == std::string::npos || end > head_end) end = head_end;
    const char* text = buffer.c_str() + line;
    if (::strncasecmp(text, "content-length:", 15) == 0) {
      content_length = std::strtoul(text + 15, nullptr, 10);
    } else if (::strncasecmp(text, "connection:", 11) == 0) {
      keep_alive = ::strncasecmp(text + 11, " close", 6) != 0;
    }
    line = end + 2;
  }
  const std::size_t body_start = head_end + 4;
  while (buffer.size() - body_start < content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  reply->status = status;
  reply->body = buffer.substr(body_start, content_length);
  if (!keep_alive) Close();
  return true;
}

}  // namespace lsi::servebench
