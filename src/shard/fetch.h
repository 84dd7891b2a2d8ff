#ifndef LSI_SHARD_FETCH_H_
#define LSI_SHARD_FETCH_H_

#include <string>

#include "common/status.h"

namespace lsi::shard {

/// One in-flight HTTP/1.1 request to a shard backend, as a poll-driven
/// state machine: non-blocking connect -> send -> read, never blocking
/// inside Step(). Keeping the fetch non-blocking is what makes hedging
/// cheap — a scatter worker can hold the primary and the hedge open at
/// once and take whichever completes first, instead of abandoning a
/// request that might still win.
///
/// One request per Start, Content-Length framing only (which is all the
/// lsi server emits). A fetch either opens a fresh connection (Start) or
/// resumes on an idle keep-alive socket from the router's pool
/// (StartOn); after a complete response ReleaseSocket() hands the
/// socket back for reuse when the reply was framed exactly. Not
/// thread-safe; each fetch belongs to one scatter worker.
class Fetch {
 public:
  enum class State { kIdle, kConnecting, kSending, kReading, kDone, kFailed };

  struct Response {
    int status = 0;
    std::string body;
    /// Parsed Retry-After header in milliseconds; -1 when absent.
    long retry_after_ms = -1;
    /// True when the reply carries X-Lsi-Epoch: a live backend answered.
    bool live = false;
  };

  Fetch() = default;
  ~Fetch() { Abort(); }
  Fetch(const Fetch&) = delete;
  Fetch& operator=(const Fetch&) = delete;

  /// Starts a non-blocking connect to `host` (numeric IPv4) and queues
  /// `request` (a fully serialized HTTP request) for sending. An
  /// unparseable address fails immediately; connection refusal surfaces
  /// later through state() == kFailed.
  Status Start(const std::string& host, int port, std::string request);

  /// Like Start, but sends `request` on `fd`, an idle keep-alive socket
  /// connected to the backend by an earlier fetch. Takes ownership.
  void StartOn(int fd, std::string request);

  State state() const { return state_; }
  bool active() const {
    return state_ == State::kConnecting || state_ == State::kSending ||
           state_ == State::kReading;
  }

  /// The socket to poll while active(), and the events to poll for.
  int fd() const { return fd_; }
  short poll_events() const;

  /// Advances the state machine as far as the socket allows without
  /// blocking. Call after poll() reports readiness (calling it when
  /// nothing is ready is merely wasted work).
  void Step();

  /// The parsed response; meaningful once state() == kDone.
  const Response& response() const { return response_; }
  const std::string& error() const { return error_; }

  /// True when a socket resumed by StartOn failed before the first
  /// response byte: the backend had closed it (idle yield, restart), so
  /// the failure says nothing about the backend's health.
  bool stale() const {
    return state_ == State::kFailed && reused_ && incoming_.empty();
  }

  /// After kDone: returns the socket for reuse when the reply was framed
  /// exactly — a full Content-Length body, no extra bytes, no
  /// "Connection: close" — and -1 otherwise. Either way the fetch no
  /// longer owns a socket.
  int ReleaseSocket();

  /// Closes the socket and returns to kIdle, abandoning any response in
  /// flight. Safe in any state; Start() may be called again after.
  void Abort();

 private:
  void Reset(std::string request, bool reused);
  void Fail(std::string message);
  void CloseSocket();
  /// Parses whatever is buffered; true once the response is complete.
  bool TryParse();

  State state_ = State::kIdle;
  int fd_ = -1;
  bool reused_ = false;  // Started on a pooled socket.
  bool has_content_length_ = false;
  bool connection_close_ = false;
  std::string outgoing_;   // Unsent request bytes.
  std::string incoming_;   // Raw response bytes.
  std::size_t head_end_ = std::string::npos;
  std::size_t content_length_ = 0;
  Response response_;
  std::string error_;
};

}  // namespace lsi::shard

#endif  // LSI_SHARD_FETCH_H_
