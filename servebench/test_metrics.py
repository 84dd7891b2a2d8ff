"""Tests for the benchmark's metric math: the percentile rule and the
base of every ratio.

  python3 servebench/test_metrics.py
"""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402


def raw_run(**overrides):
    """A minimal runner output with every field the metrics read."""
    run = {
        "elapsed_s": 10.0,
        "query_ms": [float(i) for i in range(1, 201)],
        "query_start_s": [i * 0.05 for i in range(200)],
        "steal_share": [0.0] * 100,
        "write_ms": [],
        "traced_query_ms": [10.0, 12.0, 14.0],
        "untraced_query_ms": [9.0, 10.0, 11.0],
        "p_at_10": [1.0, 0.8, 0.9],
        "repeats_sent": 0,
        "shards": 0,
        "attempted": 200,
        "failed": 0,
        "serving": {
            "setup_s": [3.0, 5.0, 4.0],
            "rss_mb": 100.0,
            "rows_scanned_per_query": 50000,
            "counters": {
                "cache_hits": 30, "cache_misses": 70, "front_queries": 100,
                "backend_queries": 0, "batches": 50, "batched_queries": 100,
                "par_wait_ms": 20.0, "connections": 1, "hedges": 0,
                "refreshes": 0,
                "drift_mean_radians": 0.0,
            },
            "trace": {"handle_ms": [11.0], "engine_queries": 4,
                      "tombstoned_queries": 1},
            "replay": {"analyze_us": [10.0], "fold_in_ms": [0.5],
                       "search_ms": [9.0], "select_ms": [5.0],
                       "select_all_ms": [6.0], "json_us": [20.0],
                       "http_parse_us": [10.0], "tombstone_path": False,
                       "svd_s": 2.0},
        },
    }
    run.update(overrides)
    return run


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.percentile(list(range(199)), 0.95), (None, 9))
        value, beyond = metrics.percentile(list(range(1, 201)), 0.95)
        self.assertEqual((value, beyond), (190, 10))

    def test_nearest_rank_ignores_order(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
        value, beyond = metrics.percentile(samples, 0.5)
        self.assertEqual(value, 3.0)
        self.assertEqual(beyond, 100)

    def test_empty(self):
        self.assertEqual(metrics.percentile([], 0.5), (None, 0))

    def test_end_to_end_reports_sample_counts(self):
        m = metrics.end_to_end(raw_run())
        self.assertEqual(m["query_p50_ms"]["samples"], 200)  # no steal
        self.assertEqual(m["query_p50_all_ms"]["samples"], 200)
        self.assertEqual(m["query_p95_all_ms"]["beyond"], 10)
        run = raw_run(query_ms=[1.0] * 150, query_start_s=[0.0] * 150)
        m = metrics.end_to_end(run)
        self.assertNotIn("query_p95_all_ms", m)
        self.assertIn("query_p50_ms", m)


class SpreadTest(unittest.TestCase):
    def test_quartiles_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(metrics.spread(values), (q3 - q1) / 3.0)
        summary = metrics.summarize(values)
        self.assertEqual(summary["median"], 3.0)
        self.assertEqual((summary["q1"], summary["q3"]), (q1, q3))

    def test_constant_has_no_spread(self):
        self.assertEqual(metrics.spread([2.0] * 10), 0.0)
        self.assertEqual(metrics.summarize([7.0])["spread"], 0.0)


class CalmestTest(unittest.TestCase):
    def test_keeps_each_windows_least_stolen_requests(self):
        starts = [0.05, 0.15, 0.25, 0.35, 1.05, 1.15, 1.25, 2.5]
        exposure = [0.3, 0.0, 0.2, 0.0, 0.5, 0.4, 0.4, 0.9]
        # Every window contributes, however stolen its calmest sample.
        self.assertEqual(metrics.calmest(starts, exposure), [1, 3, 5, 6, 7])

    def test_steal_free_run_keeps_every_request(self):
        starts = [0.3 * i for i in range(30)]
        self.assertEqual(metrics.calmest(starts, [0.0] * 30), list(range(30)))

    def test_requests_take_the_steal_of_their_start_sample(self):
        steal = [0.5, 0.0, 0.5]  # 100 ms samples
        self.assertEqual(metrics.steal_at([0.05, 0.15, 0.25, 9.0], steal),
                         [0.5, 0.0, 0.5, 0.5])
        latency = [30.0, 10.0, 31.0, 32.0]
        starts = [0.05, 0.15, 0.25, 0.26]
        self.assertEqual(metrics.calm_samples(latency, starts, steal), [10.0])

    def test_measured_window_starts_at_from_s(self):
        latency = [1.0, 2.0, 3.0, 4.0]
        starts = [0.1, 0.4, 0.6, 1.5]
        self.assertEqual(metrics.calm_samples(latency, starts, [], 0.5),
                         [3.0, 4.0])
        m = metrics.end_to_end(raw_run(measured_from_s=5.0))
        self.assertEqual(m["query_p50_ms"]["samples"], 100)
        self.assertEqual(m["query_p50_all_ms"]["samples"], 200)


class RatioBaseTest(unittest.TestCase):
    def test_empty_base_is_zero(self):
        self.assertEqual(metrics.ratio(5, 0), 0.0)

    def test_end_to_end_bases(self):
        m = metrics.end_to_end(raw_run(failed=4, attempted=200))
        self.assertEqual(m["failed_ratio"]["value"], 4 / 200)  # attempted
        self.assertEqual(m["query_qps"]["value"], 200 / 10.0)  # elapsed
        self.assertEqual(m["query_p50_ms"]["value"], 100.5)    # every window
        self.assertAlmostEqual(m["p_at_10"]["value"], 0.9)     # replies
        self.assertEqual(m["setup_s"]["value"], 4.0)           # median
        self.assertNotIn("write_p50_ms", m)

    def test_write_rate_base_is_elapsed(self):
        m = metrics.end_to_end(raw_run(write_ms=[2.0] * 50,
                                       write_start_s=[0.1 * i
                                                      for i in range(50)]))
        self.assertEqual(m["write_ops_s"]["value"], 5.0)
        self.assertEqual(m["write_p50_ms"]["value"], 2.0)

    def test_single_cache_ratio_base_is_lookups(self):
        front, backend = metrics.cache_ratios(raw_run())
        self.assertEqual(front, 30 / 100)
        self.assertEqual(backend, 0.0)

    def test_router_cache_ratios_come_from_request_counts(self):
        run = raw_run(shards=4)
        # 100 routed queries, 60 scattered to 4 shards plus 2 hedges;
        # 40 router hits and 1 backend hit among 242 backend requests.
        run["serving"]["counters"].update(
            front_queries=100, backend_queries=242, hedges=2,
            cache_hits=41, cache_misses=301)
        front, backend = metrics.cache_ratios(run)
        self.assertEqual(front, 40 / 100)
        self.assertEqual(backend, 1 / 242)

    def test_per_layer_bases(self):
        m = metrics.per_layer(raw_run())
        v = {k: x["value"] for k, x in m.items()}
        self.assertEqual(v["core.score_ms"], 9.0 - 0.5 - 5.0)
        self.assertEqual(v["core.tombstone_path_share"], 1 / 4)
        self.assertEqual(v["par.wait_ms"], 20.0 / 200)   # client queries
        self.assertEqual(v["serve.batch_size_mean"], 100 / 50)
        self.assertEqual(v["serve.transport_ms"], 12.0 - 11.0)
        self.assertEqual(v["par.search_speedup"], 1.0)  # one thread
        self.assertEqual(v["shard.connects_per_query"], 0.0)
        self.assertEqual(v["live.write_p50_ms"], 0.0)
        self.assertAlmostEqual(v["trace.overhead_pct"], 20.0)
        stages = 0.010 + 9.0 + 0.020 + 0.010
        self.assertAlmostEqual(v["trace.coverage"], stages / 12.0)

    def test_tombstone_path_uses_full_ranking(self):
        run = raw_run()
        run["serving"]["replay"]["tombstone_path"] = True
        m = metrics.per_layer(run)
        self.assertEqual(m["core.score_ms"]["value"], 9.0 - 0.5 - 6.0)

    def test_router_connections_per_scattered_query(self):
        run = raw_run(shards=4)
        run["serving"]["counters"].update(
            front_queries=100, backend_queries=240, hedges=0,
            connections=242, cache_hits=40)
        m = metrics.per_layer(run)
        self.assertAlmostEqual(m["shard.connects_per_query"]["value"],
                               242 / 60)


if __name__ == "__main__":
    unittest.main()
