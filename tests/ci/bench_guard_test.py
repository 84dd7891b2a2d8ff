#!/usr/bin/env python3
"""Unit tests for ci/bench_guard.py: the legacy speedup guard, the
merge-base-vs-head ab gate (a seeded 2x slowdown fails and names only
its row; identical runs pass), and the loud failure when a benchmark
name disappears from the output."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir, "ci"))
import bench_guard  # noqa: E402


def gbench_json(entries):
    """Builds a google-benchmark JSON document from (name, time, unit)
    tuples; a None time marks an errored (skipped) benchmark."""
    benches = []
    for name, t, unit in entries:
        bench = {"name": name, "run_type": "iteration"}
        if t is None:
            bench["error_occurred"] = True
            bench["error_message"] = "simd path unsupported on this host"
        else:
            bench["real_time"] = t
            bench["cpu_time"] = t
            bench["time_unit"] = unit
        benches.append(bench)
    return {"benchmarks": benches}


class BenchGuardTestBase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write_json(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(payload, f)
        return path

    def run_guard(self, argv):
        return bench_guard.main(argv)


class LoadTimesTest(BenchGuardTestBase):
    def test_normalizes_units_to_ns(self):
        path = self.write_json("t.json", gbench_json([
            ("BM_A/1", 2.0, "us"),
            ("BM_B/1", 3.0, "ms"),
            ("BM_C/1", 4.0, "ns"),
        ]))
        times = bench_guard.load_times(path)
        self.assertEqual(times["BM_A/1"], 2000.0)
        self.assertEqual(times["BM_B/1"], 3000000.0)
        self.assertEqual(times["BM_C/1"], 4.0)

    def test_skips_errored_and_aggregate_entries(self):
        doc = gbench_json([("BM_A/1", 5.0, "ns"),
                           ("BM_SimdDot/avx2/128", None, "ns")])
        doc["benchmarks"].append({"name": "BM_A/1_mean",
                                  "run_type": "aggregate",
                                  "real_time": 1.0, "time_unit": "ns"})
        path = self.write_json("t.json", doc)
        times = bench_guard.load_times(path)
        self.assertEqual(set(times), {"BM_A/1"})

    def test_keeps_best_repetition(self):
        path = self.write_json("t.json", gbench_json([
            ("BM_A/1", 9.0, "ns"), ("BM_A/1", 4.0, "ns"),
            ("BM_A/1", 6.0, "ns")]))
        self.assertEqual(bench_guard.load_times(path)["BM_A/1"], 4.0)


class SpeedupModeTest(BenchGuardTestBase):
    def guarded(self, serial_us, parallel_us):
        return gbench_json([
            ("BM_SparseMatVecThreads/2000/1", serial_us, "us"),
            ("BM_SparseMatVecThreads/2000/4", parallel_us, "us"),
            ("BM_GramApplyThreads/2000/1", serial_us, "us"),
            ("BM_GramApplyThreads/2000/4", parallel_us, "us"),
        ])

    def test_legacy_positional_interface_passes(self):
        path = self.write_json("b.json", self.guarded(100.0, 40.0))
        self.assertEqual(self.run_guard([path, "--threshold", "0.9"]), 0)

    def test_slow_parallel_fails(self):
        path = self.write_json("b.json", self.guarded(100.0, 150.0))
        self.assertEqual(self.run_guard([path, "--threshold", "0.9"]), 1)

    def test_missing_benchmark_name_fails_with_diff(self):
        doc = gbench_json([
            ("BM_SparseMatVecThreads/2000/1", 100.0, "us"),
            # The /4 leg vanished — e.g. someone renamed the benchmark.
            ("BM_GramApplyThreads/2000/1", 100.0, "us"),
            ("BM_GramApplyThreads/2000/4", 50.0, "us"),
        ])
        path = self.write_json("b.json", doc)
        self.assertEqual(self.run_guard(["speedup", path]), 1)

    def test_empty_output_fails(self):
        path = self.write_json("b.json", gbench_json([]))
        self.assertEqual(self.run_guard([path]), 1)

    def test_unreadable_json_fails(self):
        path = os.path.join(self.tmp.name, "nope.json")
        self.assertEqual(self.run_guard([path]), 1)


# Rows of one bench_s1 run as (name, ns); the AVX2 variant carries None
# in tests that model a host without AVX2 (an errored, skipped row).
ROWS = {
    "BM_CosineScoreThreads/scalar/2000/1": 150e3,
    "BM_CosineScoreThreads/scalar/2000/4": 60e3,
    "BM_CosineScoreThreads/avx2/2000/1": 62e3,
    "BM_SimdDot/avx2/128": 17.0,
    "BM_QueryCacheHit": 3e3,
}


class AbModeTest(BenchGuardTestBase):
    def write_runs(self, side, rows_per_pair):
        """Writes one run file per pair under <tmp>/<side>/ and returns
        the directory. rows_per_pair[i] maps row name -> ns (None marks
        an errored row)."""
        directory = os.path.join(self.tmp.name, side)
        os.makedirs(directory, exist_ok=True)
        for i, rows in enumerate(rows_per_pair):
            entries = [(name, t, "ns") for name, t in rows.items()]
            with open(os.path.join(directory, "%02d.json" % i), "w") as f:
                json.dump(gbench_json(entries), f)
        return directory

    def noisy(self, rows=ROWS, pairs=bench_guard.MIN_PAIRS, scale=None):
        """Per-pair rows with a few percent of run-to-run spread; `scale`
        multiplies the named rows (a seeded slowdown)."""
        scale = scale or {}
        return [{name: None if t is None else
                 t * (1.0 + 0.03 * ((i * 7) % 5 - 2)) * scale.get(name, 1.0)
                 for name, t in rows.items()}
                for i in range(pairs)]

    def ab(self, base, head):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.run_guard(["ab", self.write_runs("base", base),
                                 self.write_runs("head", head)])
        return rc, out.getvalue(), err.getvalue()

    def test_seeded_2x_slowdown_fails_and_names_only_that_row(self):
        slow = "BM_CosineScoreThreads/avx2/2000/1"
        rc, out, err = self.ab(self.noisy(), self.noisy(scale={slow: 2.0}))
        self.assertEqual(rc, 1)
        self.assertIn(slow, err)
        for row in ROWS:
            if row != slow:
                self.assertNotIn(row, err)
        failed = [line for line in out.splitlines() if "[FAIL]" in line]
        self.assertEqual(len(failed), 1, out)
        self.assertIn(slow, failed[0])
        self.assertIn("1 regressed", out)

    def test_identical_base_and_head_pass(self):
        rc, out, err = self.ab(self.noisy(), self.noisy())
        self.assertEqual(rc, 0, err)
        self.assertNotIn("[FAIL]", out)
        self.assertIn("%d row(s) compared, 0 regressed" % len(ROWS), out)

    def test_slower_in_every_pair_within_base_spread_passes(self):
        # Head loses every pair, but by less than base's own IQR: noise
        # the gate cannot tell from a change, so it does not fail.
        rc, out, _ = self.ab(self.noisy(),
                             self.noisy(scale={"BM_SimdDot/avx2/128": 1.01}))
        self.assertEqual(rc, 0, out)
        self.assertIn("head slower 10/10) [ok]", out)

    def test_2x_slowdown_with_one_faster_pair_passes(self):
        # The every-pair rule: a pair in which head won clears the row.
        head = self.noisy(scale={"BM_SimdDot/avx2/128": 2.0})
        head[3]["BM_SimdDot/avx2/128"] = 1.0
        rc, _, _ = self.ab(self.noisy(), head)
        self.assertEqual(rc, 0)

    def test_row_vanishing_from_head_fails_with_diff(self):
        head = self.noisy()
        for rows in head:
            del rows["BM_QueryCacheHit"]
            rows["BM_QueryCacheHitRenamed"] = 3e3
        rc, _, err = self.ab(self.noisy(), head)
        self.assertEqual(rc, 1)
        self.assertIn("- BM_QueryCacheHit  (expected but missing)",
                      err)
        self.assertIn("+ BM_QueryCacheHitRenamed  (new", err)

    def test_row_missing_from_one_base_run_fails(self):
        base = self.noisy()
        del base[4]["BM_SimdDot/avx2/128"]
        rc, _, err = self.ab(base, self.noisy())
        self.assertEqual(rc, 1)
        self.assertIn("base run 04.json", err)

    def test_errored_rows_are_ignored_on_both_sides(self):
        no_avx2 = dict(ROWS)
        no_avx2["BM_CosineScoreThreads/avx2/2000/1"] = None
        no_avx2["BM_SimdDot/avx2/128"] = None
        rc, out, err = self.ab(self.noisy(no_avx2), self.noisy(no_avx2))
        self.assertEqual(rc, 0, err)
        self.assertNotIn("avx2", out)
        self.assertIn("3 row(s) compared", out)

    def test_row_only_head_reports_is_new_and_passes(self):
        base_rows = dict(ROWS)
        del base_rows["BM_QueryCacheHit"]
        rc, out, err = self.ab(self.noisy(base_rows), self.noisy())
        self.assertEqual(rc, 0, err)
        new = [line for line in out.splitlines() if "(new" in line]
        self.assertEqual(len(new), 1, out)
        self.assertIn("BM_QueryCacheHit", new[0])
        self.assertIn("1 new", out)

    def test_too_few_pairs_fails(self):
        pairs = bench_guard.MIN_PAIRS - 1
        rc, _, err = self.ab(self.noisy(pairs=pairs), self.noisy(pairs=pairs))
        self.assertEqual(rc, 1)
        self.assertIn("needs at least", err)

    def test_unpaired_run_files_fail(self):
        rc, _, err = self.ab(self.noisy(pairs=11), self.noisy(pairs=10))
        self.assertEqual(rc, 1)
        self.assertIn("do not pair up", err)


if __name__ == "__main__":
    unittest.main()
