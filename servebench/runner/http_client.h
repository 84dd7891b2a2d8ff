// A minimal blocking HTTP/1.1 client over one keep-alive loopback
// connection: the load generator's side of every request.

#ifndef SERVEBENCH_RUNNER_HTTP_CLIENT_H_
#define SERVEBENCH_RUNNER_HTTP_CLIENT_H_

#include <string>

namespace lsi::servebench {

struct HttpReply {
  int status = 0;  ///< 0 when the exchange failed at the transport.
  std::string body;
};

/// The exact bytes the client sends for a request; the traced run feeds
/// the same bytes to HttpParser.
std::string BuildRequest(const std::string& method, const std::string& path,
                         const std::string& body);

class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one request and reads its Content-Length framed reply;
  /// status 0 on a transport failure.
  HttpReply Send(const std::string& method, const std::string& path,
                 const std::string& body);

 private:
  bool Exchange(const std::string& request, HttpReply* reply);
  void Close();

  int port_;
  int fd_ = -1;
};

}  // namespace lsi::servebench

#endif  // SERVEBENCH_RUNNER_HTTP_CLIENT_H_
