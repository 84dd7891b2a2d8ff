#include "obs/metrics.h"

#include <algorithm>

#include "common/check.h"
#include "common/fault.h"
#include "dbg/lock_tracker.h"

namespace lsi::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBucketsMs();
  LSI_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double value) {
  std::size_t bucket = std::upper_bound(bounds_.begin(), bounds_.end(), value) -
                       bounds_.begin();
  // upper_bound gives the first bound strictly greater; values equal to a
  // bound belong in that bound's bucket (inclusive upper edges).
  if (bucket > 0 && value == bounds_[bucket - 1]) --bucket;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> DefaultLatencyBucketsMs() {
  return {0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
          5000, 10000};
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramValue value;
    value.name = name;
    value.bounds = histogram->bounds();
    value.bucket_counts = histogram->bucket_counts();
    value.count = histogram->count();
    value.sum = histogram->sum();
    snapshot.histograms.push_back(std::move(value));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

void MirrorFaultMetrics() {
  fault::FaultRegistry& faults = fault::FaultRegistry::Global();
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const std::string& name : faults.PointNames()) {
    const fault::FaultPoint* point = faults.Find(name);
    if (point == nullptr) continue;
    // Counters only increment, so mirror by delta against the last
    // mirrored value (a registry Reset simply re-mirrors the total).
    Counter& hits = registry.GetCounter("lsi.fault." + name + ".hits");
    Counter& triggers = registry.GetCounter("lsi.fault." + name + ".triggers");
    const std::uint64_t total_hits = point->hits();
    const std::uint64_t total_triggers = point->triggers();
    if (total_hits > hits.value()) hits.Increment(total_hits - hits.value());
    if (total_triggers > triggers.value()) {
      triggers.Increment(total_triggers - triggers.value());
    }
  }
}

void MirrorLockMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("lsi.dbg.lock.enabled")
      .Set(dbg::DeadlockDetectEnabled() ? 1.0 : 0.0);
  // Counters only increment; mirror by delta like the fault mirror.
  Counter& violations = registry.GetCounter("lsi.dbg.lock.violations");
  const std::uint64_t total = dbg::ViolationCount();
  if (total > violations.value()) {
    violations.Increment(total - violations.value());
  }
}

}  // namespace lsi::obs
