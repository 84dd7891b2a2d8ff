#include "obs/metrics.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"

namespace lsi::obs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge gauge;
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  gauge.Set(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.Add(0.25);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.75);
  gauge.Set(-3.0);  // Set overwrites, it does not accumulate.
  EXPECT_DOUBLE_EQ(gauge.value(), -3.0);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(HistogramTest, BucketsHaveInclusiveUpperEdges) {
  Histogram histogram({1.0, 2.0});
  histogram.Observe(0.5);  // First bucket.
  histogram.Observe(1.0);  // Exactly on an edge -> still the first bucket.
  histogram.Observe(2.0);  // Second bucket.
  histogram.Observe(9.0);  // Overflow.
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 12.5);
  std::vector<std::uint64_t> expected = {2, 1, 1};
  EXPECT_EQ(histogram.bucket_counts(), expected);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
  expected = {0, 0, 0};
  EXPECT_EQ(histogram.bucket_counts(), expected);
}

TEST(HistogramTest, EmptyBoundsSelectDefaultLatencyBuckets) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("latency");
  EXPECT_EQ(histogram.bounds(), DefaultLatencyBucketsMs());
  // The buckets resolve one stage of a 0.1 ms query: a 0.02 ms sample
  // does not share the first bucket with a 0.005 ms one.
  histogram.Observe(0.005);
  histogram.Observe(0.02);
  EXPECT_EQ(histogram.bucket_counts()[0], 1u);
}

TEST(MetricsRegistryTest, ReturnsStableReferencesAndSortedSnapshot) {
  MetricsRegistry registry;
  Counter& b = registry.GetCounter("b");
  Counter& a = registry.GetCounter("a");
  EXPECT_EQ(&registry.GetCounter("b"), &b);
  a.Increment(1);
  b.Increment(2);
  registry.GetGauge("g").Set(0.5);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a");
  EXPECT_EQ(snapshot.counters[0].second, 1u);
  EXPECT_EQ(snapshot.counters[1].first, "b");
  EXPECT_EQ(snapshot.counters[1].second, 2u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 0.5);

  // Reset zeroes values but keeps the references registered and valid.
  registry.Reset();
  EXPECT_EQ(b.value(), 0u);
  b.Increment(7);
  EXPECT_EQ(registry.Snapshot().counters[1].second, 7u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsObserveExactTotals) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter& counter = registry.GetCounter("hits");
      Gauge& gauge = registry.GetGauge("load");
      Histogram& histogram = registry.GetHistogram("lat", {1.0, 10.0});
      for (int i = 0; i < kIncrements; ++i) {
        counter.Increment();
        gauge.Add(1.0);
        histogram.Observe(0.5);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kIncrements;
  EXPECT_EQ(registry.GetCounter("hits").value(), kTotal);
  // Integer-valued adds stay exact in double well past 160k.
  EXPECT_DOUBLE_EQ(registry.GetGauge("load").value(),
                   static_cast<double>(kTotal));
  Histogram& histogram = registry.GetHistogram("lat");
  EXPECT_EQ(histogram.count(), kTotal);
  EXPECT_EQ(histogram.bucket_counts()[0], kTotal);
}

TEST(ScopedTimerTest, ObservesEachScopeOnceOnEveryExit) {
  Histogram outer_ms({});
  Histogram inner_ms({});
  const auto timed = [&](bool early) {
    ScopedTimer outer(outer_ms);
    {
      ScopedTimer inner(inner_ms);
      if (early) return;
    }
  };
  timed(false);
  timed(true);
  EXPECT_EQ(outer_ms.count(), 2u);
  EXPECT_EQ(inner_ms.count(), 2u);
  // A nested stage runs inside its parent, so it cannot take longer.
  EXPECT_GE(outer_ms.sum(), inner_ms.sum());
}

TEST(ExportTest, ParseExportFormat) {
  EXPECT_EQ(ParseExportFormat("json"), ExportFormat::kJson);
  EXPECT_EQ(ParseExportFormat("JSON"), ExportFormat::kJson);
  EXPECT_EQ(ParseExportFormat("prom"), ExportFormat::kPrometheus);
  EXPECT_EQ(ParseExportFormat("Prometheus"), ExportFormat::kPrometheus);
  EXPECT_EQ(ParseExportFormat("off"), ExportFormat::kNone);
  EXPECT_EQ(ParseExportFormat(""), ExportFormat::kNone);
}

TEST(ExportTest, JsonGoldenEmptyRegistries) {
  MetricsRegistry metrics;
  EXPECT_EQ(ExportJson(metrics),
            "{\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
}

TEST(ExportTest, JsonGolden) {
  MetricsRegistry metrics;
  metrics.GetCounter("a.b").Increment(3);
  metrics.GetGauge("g").Set(1.5);
  Histogram& histogram = metrics.GetHistogram("h", {1.0, 2.0});
  histogram.Observe(0.5);
  histogram.Observe(1.5);
  histogram.Observe(9.0);

  EXPECT_EQ(ExportJson(metrics),
            "{\n"
            "  \"counters\": {\n"
            "    \"a.b\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g\": 1.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h\": {\"count\": 3, \"sum\": 11, \"buckets\": "
            "[{\"le\": 1, \"count\": 1}, {\"le\": 2, \"count\": 1}, "
            "{\"le\": \"+Inf\", \"count\": 1}]}\n"
            "  }\n"
            "}\n");
}

TEST(ExportTest, PrometheusGolden) {
  MetricsRegistry metrics;
  metrics.GetCounter("lsi.svd.lanczos.iterations").Increment(12);
  metrics.GetGauge("lsi.svd.lanczos.residual").Set(0.25);
  Histogram& histogram = metrics.GetHistogram("lat.ms", {1.0, 2.0});
  histogram.Observe(0.5);
  histogram.Observe(1.5);
  histogram.Observe(9.0);

  EXPECT_EQ(ExportPrometheus(metrics),
            "# TYPE lsi_svd_lanczos_iterations counter\n"
            "lsi_svd_lanczos_iterations_total 12\n"
            "# TYPE lsi_svd_lanczos_residual gauge\n"
            "lsi_svd_lanczos_residual 0.25\n"
            "# TYPE lat_ms histogram\n"
            "lat_ms_bucket{le=\"1\"} 1\n"
            "lat_ms_bucket{le=\"2\"} 2\n"
            "lat_ms_bucket{le=\"+Inf\"} 3\n"
            "lat_ms_sum 11\n"
            "lat_ms_count 3\n");
}

}  // namespace
}  // namespace lsi::obs
