#ifndef LSI_COMMON_TIMER_H_
#define LSI_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace lsi {

/// Wall-clock stopwatch used by the benchmark harnesses.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Resets the stopwatch to zero.
  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Restart(), in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates wall time across repeated Start()/Stop() pairs (or direct
/// Record() calls) and reports the interval count alongside the total.
/// The Lanczos solver sums its per-step operator applications and
/// reorthogonalizations with it (the lsi.svd.lanczos.{apply,reorth}_ms
/// gauges). Not thread-safe; callers that share one instance must
/// synchronize.
class CumulativeTimer {
 public:
  /// Begins a new interval. Calling Start() while already running
  /// restarts the current interval without recording it.
  void Start() {
    running_ = true;
    timer_.Restart();
  }

  /// Ends the current interval, adds it to the total, and returns its
  /// length in seconds. A Stop() without a matching Start() is a no-op
  /// returning 0.
  double Stop() {
    if (!running_) return 0.0;
    running_ = false;
    double seconds = timer_.ElapsedSeconds();
    total_seconds_ += seconds;
    ++count_;
    return seconds;
  }

  /// Adds an externally measured interval (e.g. from another thread's
  /// scoped timer) to the running total.
  void Record(double seconds) {
    total_seconds_ += seconds;
    ++count_;
  }

  /// Number of completed intervals.
  std::uint64_t count() const { return count_; }

  /// Sum of completed interval lengths, in seconds (a currently running
  /// interval is not included).
  double TotalSeconds() const { return total_seconds_; }

  /// Sum of completed interval lengths, in milliseconds.
  double TotalMillis() const { return total_seconds_ * 1e3; }

  /// Discards all recorded intervals (and any running one).
  void Reset() {
    running_ = false;
    total_seconds_ = 0.0;
    count_ = 0;
  }

 private:
  Timer timer_;
  bool running_ = false;
  double total_seconds_ = 0.0;
  std::uint64_t count_ = 0;
};

}  // namespace lsi

#endif  // LSI_COMMON_TIMER_H_
