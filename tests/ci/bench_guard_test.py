#!/usr/bin/env python3
"""Unit tests for ci/bench_guard.py: the legacy speedup guard, the
BENCH_<pr>.json emit/compare trajectory, the >15% synthetic regression
(negative test from the PR acceptance criteria), and the loud failure
when a benchmark name disappears from the output."""

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


TRAJ = [
    ("BM_CosineScoreThreads/scalar/2000/4", 900.0, "us"),
    ("BM_CosineScoreThreads/avx2/2000/4", 400.0, "us"),
    ("BM_SimdDot/avx2/128", 20.0, "ns"),
    ("BM_SpmvPath/avx2/2000", 120.0, "us"),
    ("BM_GemmPath/avx2/600", 30.0, "ms"),
    ("BM_SparseMatVecThreads/2000/1", 200.0, "us"),
    ("BM_SparseMatVecThreads/2000/4", 80.0, "us"),
    ("BM_TextPipeline", 11.0, "us"),  # Not a trajectory kernel.
]


class EmitModeTest(BenchGuardTestBase):
    def emit(self, entries, pr=7, name="BENCH_7.json"):
        raw = self.write_json("raw.json", gbench_json(entries))
        out = os.path.join(self.tmp.name, name)
        rc = self.run_guard([
            "emit", raw, "--pr", str(pr), "--out", out,
            "--commit", "abc1234", "--threads", "4",
            "--build-type", "Release", "--dispatch-path", "avx2"])
        return rc, out

    def test_emits_schema_versioned_snapshot(self):
        rc, out = self.emit(TRAJ)
        self.assertEqual(rc, 0)
        with open(out) as f:
            snap = json.load(f)
        self.assertEqual(snap["schema_version"],
                         bench_guard.BENCH_SCHEMA_VERSION)
        self.assertEqual(snap["pr"], 7)
        self.assertEqual(snap["commit"], "abc1234")
        self.assertEqual(snap["config"]["dispatch_path"], "avx2")
        self.assertEqual(snap["config"]["threads"], 4)
        self.assertIn("BM_SimdDot/avx2/128", snap["kernels"])
        self.assertEqual(snap["kernels"]["BM_SimdDot/avx2/128"], 20.0)
        # Unit-normalized: 400us -> ns.
        self.assertEqual(
            snap["kernels"]["BM_CosineScoreThreads/avx2/2000/4"], 400e3)
        self.assertNotIn("BM_TextPipeline", snap["kernels"])

    def test_emit_with_no_kernels_fails(self):
        rc, _ = self.emit([("BM_TextPipeline", 11.0, "us")])
        self.assertEqual(rc, 1)

    def test_emit_merges_multiple_inputs(self):
        # The CI job feeds one substrate and one serve-path JSON file;
        # a single snapshot must span both binaries.
        substrate = self.write_json("s1.json", gbench_json(TRAJ))
        serve = self.write_json("s2.json", gbench_json([
            ("BM_HttpParseRequest", 300.0, "ns"),
            ("BM_JsonParse", 1.2, "us"),
            ("BM_JsonSerializeHits", 2.5, "us"),
            ("BM_QueryCacheHit/8", 90.0, "ns"),
            ("BM_ServiceHandleUncachedQuery", 40.0, "us"),
            ("BM_ServiceHandleCachedQuery", 1.1, "us"),
        ]))
        out = os.path.join(self.tmp.name, "BENCH_8.json")
        rc = self.run_guard([
            "emit", substrate, serve, "--pr", "8", "--out", out,
            "--commit", "abc1234", "--threads", "4",
            "--build-type", "Release", "--dispatch-path", "avx2"])
        self.assertEqual(rc, 0)
        with open(out) as f:
            snap = json.load(f)
        self.assertIn("BM_SimdDot/avx2/128", snap["kernels"])
        self.assertEqual(snap["kernels"]["BM_HttpParseRequest"], 300.0)
        self.assertEqual(snap["kernels"]["BM_QueryCacheHit/8"], 90.0)
        self.assertEqual(snap["kernels"]["BM_ServiceHandleUncachedQuery"], 40e3)

    def test_emit_rejects_duplicate_names_across_inputs(self):
        a = self.write_json("a.json", gbench_json(TRAJ))
        b = self.write_json("b.json", gbench_json(TRAJ))
        out = os.path.join(self.tmp.name, "BENCH_8.json")
        rc = self.run_guard(["emit", a, b, "--pr", "8", "--out", out])
        self.assertEqual(rc, 1)


class CompareModeTest(BenchGuardTestBase):
    def snapshot(self, pr, kernels, name=None):
        snap = {"schema_version": bench_guard.BENCH_SCHEMA_VERSION,
                "pr": pr, "commit": "c%d" % pr,
                "config": {"threads": 4, "dispatch_path": "avx2",
                           "build_type": "Release"},
                "kernels": kernels}
        return self.write_json(name or ("BENCH_%d.json" % pr), snap)

    def compare(self, current, tolerance=0.15):
        return self.run_guard([
            "compare", current, "--baseline-dir", self.tmp.name,
            "--tolerance", str(tolerance)])

    def test_within_tolerance_passes(self):
        self.snapshot(6, {"BM_SimdDot/avx2/128": 20.0})
        cur = self.snapshot(7, {"BM_SimdDot/avx2/128": 22.0},
                            name="current.json")
        self.assertEqual(self.compare(cur), 0)

    def test_synthetic_fifteen_percent_regression_fails(self):
        # The acceptance-criteria negative test: >15% slower must fail.
        self.snapshot(6, {"BM_SimdDot/avx2/128": 100.0})
        cur = self.snapshot(7, {"BM_SimdDot/avx2/128": 116.0},
                            name="current.json")
        self.assertEqual(self.compare(cur), 1)

    def test_disappeared_kernel_fails(self):
        self.snapshot(6, {"BM_SimdDot/avx2/128": 20.0,
                          "BM_GemmPath/avx2/600": 100.0})
        cur = self.snapshot(7, {"BM_SimdDot/avx2/128": 20.0},
                            name="current.json")
        self.assertEqual(self.compare(cur), 1)

    def test_new_kernel_is_allowed(self):
        self.snapshot(6, {"BM_SimdDot/avx2/128": 20.0})
        cur = self.snapshot(7, {"BM_SimdDot/avx2/128": 20.0,
                                "BM_SpmvPath/avx2/2000": 50.0},
                            name="current.json")
        self.assertEqual(self.compare(cur), 0)

    def test_picks_newest_lower_pr_baseline(self):
        self.snapshot(5, {"BM_SimdDot/avx2/128": 10.0})   # Would fail.
        self.snapshot(6, {"BM_SimdDot/avx2/128": 20.0})   # Passes.
        self.snapshot(9, {"BM_SimdDot/avx2/128": 1.0})    # Future: ignored.
        cur = self.snapshot(7, {"BM_SimdDot/avx2/128": 21.0},
                            name="current.json")
        self.assertEqual(self.compare(cur), 0)

    def test_no_baseline_passes(self):
        cur = self.snapshot(1, {"BM_SimdDot/avx2/128": 21.0},
                            name="current.json")
        self.assertEqual(self.compare(cur), 0)

    def test_schema_mismatch_fails(self):
        self.snapshot(6, {"BM_SimdDot/avx2/128": 20.0})
        bad = self.write_json("current.json", {
            "schema_version": 999, "pr": 7, "kernels": {}})
        self.assertEqual(self.compare(bad), 1)

    def compare_capture(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.run_guard(argv)
        return rc, out.getvalue()

    def test_improvement_is_marked_and_summarized(self):
        # Trajectory reviews must see wins, not only losses: a kernel
        # that got 2x faster is flagged [improved] and counted in the
        # closing summary, and the run still passes.
        self.snapshot(6, {"BM_SimdDot/avx2/128": 100.0,
                          "BM_SpmvPath/avx2/2000": 50.0})
        cur = self.snapshot(7, {"BM_SimdDot/avx2/128": 50.0,
                                "BM_SpmvPath/avx2/2000": 51.0},
                            name="current.json")
        rc, out = self.compare_capture([
            "compare", cur, "--baseline-dir", self.tmp.name,
            "--tolerance", "0.15"])
        self.assertEqual(rc, 0)
        self.assertIn("[improved]", out)
        self.assertIn("-50.0%", out)
        self.assertIn("1 improved, 0 regressed, 1 within tolerance, 0 new",
                      out)

    def test_regression_counted_in_summary(self):
        self.snapshot(6, {"BM_SimdDot/avx2/128": 100.0})
        cur = self.snapshot(7, {"BM_SimdDot/avx2/128": 200.0},
                            name="current.json")
        rc, out = self.compare_capture([
            "compare", cur, "--baseline-dir", self.tmp.name,
            "--tolerance", "0.15"])
        self.assertEqual(rc, 1)
        self.assertIn("0 improved, 1 regressed, 0 within tolerance, 0 new",
                      out)

    def test_explicit_baseline_overrides_discovery(self):
        # Discovery would pick pr 6 (the newest below 7) and fail on the
        # 2x regression; pinning --baseline to the pr 5 snapshot passes.
        self.snapshot(5, {"BM_SimdDot/avx2/128": 21.0})
        self.snapshot(6, {"BM_SimdDot/avx2/128": 10.0})
        cur = self.snapshot(7, {"BM_SimdDot/avx2/128": 20.0},
                            name="current.json")
        self.assertEqual(self.compare(cur), 1)
        base5 = os.path.join(self.tmp.name, "BENCH_5.json")
        self.assertEqual(self.run_guard([
            "compare", cur, "--baseline", base5,
            "--tolerance", "0.15"]), 0)

    def test_only_prefix_limits_scope(self):
        # The CI serve gate holds the serve-path kernels to a 2% bar
        # while ignoring substrate kernels (and their disappearance).
        self.snapshot(8, {"BM_ServiceHandleCachedQuery": 100.0,
                          "BM_HttpParseRequest": 100.0,
                          "BM_SimdDot/avx2/128": 10.0})
        cur = self.snapshot(9, {"BM_ServiceHandleCachedQuery": 101.0,
                                "BM_HttpParseRequest": 101.0},
                            name="current.json")
        self.assertEqual(self.run_guard([
            "compare", cur, "--baseline-dir", self.tmp.name,
            "--tolerance", "0.02",
            "--only-prefix", "BM_ServiceHandleCachedQuery",
            "--only-prefix", "BM_HttpParseRequest"]), 0)
        # The same 2% bar trips on a 3% serve-path slowdown.
        worse = self.snapshot(9, {"BM_ServiceHandleCachedQuery": 103.0,
                                  "BM_HttpParseRequest": 100.0},
                              name="worse.json")
        self.assertEqual(self.run_guard([
            "compare", worse, "--baseline-dir", self.tmp.name,
            "--tolerance", "0.02",
            "--only-prefix", "BM_ServiceHandleCachedQuery",
            "--only-prefix", "BM_HttpParseRequest"]), 1)

    def test_compare_without_any_baseline_arg_fails(self):
        cur = self.snapshot(7, {"BM_SimdDot/avx2/128": 20.0},
                            name="current.json")
        self.assertEqual(self.run_guard(["compare", cur]), 1)


if __name__ == "__main__":
    unittest.main()
