#ifndef LSI_OBS_METRICS_H_
#define LSI_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace lsi::obs {

/// Monotonically increasing integer metric. Increment is a single relaxed
/// atomic add, safe to call from any thread.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins floating-point metric with an atomic Add for
/// accumulation use cases. Lock-free on every operation.
class Gauge {
 public:
  void Set(double value) {
    value_.store(value, std::memory_order_relaxed);
  }

  /// Atomic accumulate via compare-exchange (std::atomic<double>::fetch_add
  /// is not guaranteed lock-free everywhere, so spell out the CAS loop).
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram in the Prometheus style: `bounds` are inclusive
/// upper edges, plus an implicit +Inf overflow bucket. Observe() is a
/// branch-free-ish scan over the (small, immutable) bound list and one
/// relaxed atomic add per recorded sample — no locks on the hot path.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// Records one sample.
  void Observe(double value);

  /// Upper bounds, ascending, excluding the implicit +Inf bucket.
  const std::vector<double>& bounds() const { return bounds_; }

  /// Per-bucket counts (size bounds().size() + 1; last is overflow).
  /// Non-cumulative, unlike Prometheus exposition.
  std::vector<std::uint64_t> bucket_counts() const;

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Sum of all observed samples.
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Bucket edges, 0.01 ms to 10 s, shared by every millisecond latency
/// histogram: from a whole HTTP request down to one stage of a 0.1 ms
/// query.
std::vector<double> DefaultLatencyBucketsMs();

/// Observes the wall time of its scope, in milliseconds, into
/// `histogram` — on every exit, early returns included. Stage timings
/// use this with a histogram looked up once into a function-local
/// static, so recording a stage is a clock read and a few relaxed atomic
/// adds, and the stage has one name whatever thread or caller runs it.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram) : histogram_(histogram) {}
  ~ScopedTimer() { histogram_.Observe(timer_.ElapsedMillis()); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  Timer timer_;
};

/// Mirrors the lsi::fault registry's per-point counters into the global
/// MetricsRegistry as `lsi.fault.<name>.hits` / `lsi.fault.<name>.triggers`.
/// The exporters call this before every render, so fault activity shows
/// up in /metrics and --stats without coupling lsi_common to lsi_obs
/// (common cannot link obs; the dependency runs the other way).
void MirrorFaultMetrics();

/// Mirrors the lock tracker's state into the global MetricsRegistry as
/// `lsi.dbg.lock.enabled` (gauge) and `lsi.dbg.lock.violations`
/// (cumulative counter). Same exporter-driven mirror pattern as
/// MirrorFaultMetrics, for the same layering reason: dbg sits below obs
/// and cannot push.
void MirrorLockMetrics();

/// A point-in-time copy of every registered metric, sorted by name —
/// the exporters' input.
struct MetricsSnapshot {
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_counts;  // bounds.size() + 1 entries.
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramValue> histograms;
};

/// Process-wide registry of named metrics. Lookup takes a short mutex;
/// the returned references are stable for the registry's lifetime, so
/// callers on genuinely hot paths can look up once and increment
/// lock-free forever after. Names are hierarchical dotted paths
/// ("lsi.svd.lanczos.iterations").
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide instance used by the engine, solvers, and tools.
  static MetricsRegistry& Global();

  /// Returns the counter registered under `name`, creating it on first use.
  Counter& GetCounter(const std::string& name);

  /// Returns the gauge registered under `name`, creating it on first use.
  Gauge& GetGauge(const std::string& name);

  /// Returns the histogram registered under `name`, creating it with
  /// `bounds` on first use (later calls ignore `bounds`). Empty bounds
  /// select DefaultLatencyBucketsMs().
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric without invalidating references —
  /// intended for tests and for tools that report per-operation deltas.
  void Reset();

 private:
  mutable Mutex mutex_{LSI_LOCK_RANK("obs.metrics", lock_rank::kObsMetrics)};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LSI_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      LSI_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      LSI_GUARDED_BY(mutex_);
};

}  // namespace lsi::obs

#endif  // LSI_OBS_METRICS_H_
