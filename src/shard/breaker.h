#ifndef LSI_SHARD_BREAKER_H_
#define LSI_SHARD_BREAKER_H_

#include <chrono>
#include <cstdint>

#include "common/rng.h"

namespace lsi::shard {

/// Health of one shard backend as the router sees it.
///
///   kHealthy  — last contact succeeded; preferred dispatch target.
///   kDegraded — recent failures below the eject threshold; still
///               dispatched to, but only after healthy replicas.
///   kEjected  — consecutive failures reached the threshold; never
///               dispatched to until a /healthz re-probe (paced by
///               capped jittered exponential backoff, serve::BackoffMs)
///               succeeds.
enum class BreakerState { kHealthy, kDegraded, kEjected };

const char* BreakerStateName(BreakerState state);

struct BreakerOptions {
  /// Consecutive failures at which a backend is ejected.
  std::uint32_t eject_threshold = 3;
};

/// Per-backend three-state circuit breaker. Pure bookkeeping — it does
/// no I/O and keeps no clock of its own (callers pass `now`), which is
/// what makes its transitions unit-testable. NOT thread-safe: the
/// Router guards all breakers with its state mutex.
class Breaker {
 public:
  /// Default-constructed breakers are placeholders (e.g. inside a
  /// Replica before Router wires real options/rng in).
  Breaker() : Breaker(BreakerOptions{}, Rng(0)) {}
  explicit Breaker(BreakerOptions options, Rng rng)
      : options_(options), rng_(rng) {}

  BreakerState state() const { return state_; }
  std::uint32_t consecutive_failures() const { return consecutive_; }

  /// A successful probe or query closes the breaker outright.
  void OnSuccess() {
    state_ = BreakerState::kHealthy;
    consecutive_ = 0;
  }

  /// Records one failure. `retry_after_ms` is the backend's shed-load
  /// hint (serve::ParseRetryAfterMs output; -1 for none) seeding the
  /// re-probe backoff base. Returns the resulting state.
  BreakerState OnFailure(long retry_after_ms,
                         std::chrono::steady_clock::time_point now);

  /// True when an ejected backend's backoff has elapsed, i.e. the
  /// prober should spend a /healthz on it. Non-ejected backends are
  /// always probeable.
  bool ProbeDue(std::chrono::steady_clock::time_point now) const {
    return state_ != BreakerState::kEjected || now >= next_probe_;
  }

  std::chrono::steady_clock::time_point next_probe() const {
    return next_probe_;
  }

 private:
  BreakerOptions options_;
  Rng rng_;
  BreakerState state_ = BreakerState::kHealthy;
  std::uint32_t consecutive_ = 0;
  std::chrono::steady_clock::time_point next_probe_{};
};

}  // namespace lsi::shard

#endif  // LSI_SHARD_BREAKER_H_
