#!/usr/bin/env python3
"""CI guards over google-benchmark output, plus the BENCH trajectory.

Three modes share this file because they share the JSON parsing:

  speedup  (default; also the legacy positional interface)
      Parallel SpMV must not be slower than serial: compares the
      1-thread and 4-thread timings of the threaded kernels and fails
      if 4 threads run below THRESHOLD x the serial throughput. The
      bar is generous (0.9x) so shared CI runners do not flake, but a
      parallel layer that actively hurts still trips it.

  emit
      Distills a fixed-configuration benchmark run into a
      schema-versioned BENCH_<pr>.json snapshot: one ns/op number per
      guarded kernel, plus the dispatch path / thread count / commit
      it was measured under. These files are committed, one per PR,
      and together form the per-PR benchmark trajectory.

  compare
      Compares a freshly emitted snapshot against the newest committed
      BENCH_*.json with a lower PR number (or against an explicit
      --baseline file). Fails on a >15% per-kernel regression and on
      kernels that disappeared from the output — silence is the
      failure mode this guard exists to kill. Improvements beyond the
      tolerance are flagged too ([improved]) and a both-directions
      summary line closes the report, so trajectory reviews see wins
      as well as losses. --only-prefix restricts the comparison to a
      kernel subset; CI uses it to hold the serve-path kernels to a
      tighter 2% bar while the detector hook sits in every Mutex.

Benchmarks that errored (e.g. an AVX2 variant skipped on a non-AVX2
host) carry no timing fields and are ignored everywhere. A benchmark
name that vanishes entirely is never ignored: both speedup and compare
modes fail loudly with an added/removed diff.

Usage:
  bench_guard.py <benchmark_json> [--threshold 0.9]
  bench_guard.py speedup <benchmark_json> [--threshold 0.9]
  bench_guard.py emit <benchmark_json>... --pr N --out BENCH_N.json
      [--commit SHA] [--threads N] [--build-type T] [--dispatch-path P]
  bench_guard.py compare <current_json> --baseline-dir DIR
      [--baseline FILE] [--tolerance 0.15] [--only-prefix BM_...]...
"""

import argparse
import glob
import json
import os
import re
import sys

GUARDED = ["BM_SparseMatVecThreads", "BM_GramApplyThreads"]
SERIAL_SUFFIX = "/1"
PARALLEL_SUFFIX = "/4"

# Kernels persisted into the BENCH_<pr>.json trajectory. Prefix match:
# every non-errored instance (per path, per size, per thread count) is
# recorded, so the trajectory gains rows as dispatch paths appear.
# The serve-path rows come from bench_s2_serve_perf and the shard rows
# from bench_s3_shard_perf; emit accepts multiple JSON files so one
# snapshot spans all the binaries.
TRAJECTORY_PREFIXES = [
    "BM_SparseMatVecThreads",
    "BM_GramApplyThreads",
    "BM_DenseGemmThreads",
    "BM_CosineScoreThreads",
    "BM_SimdDot",
    "BM_SpmvPath",
    "BM_GemmPath",
    "BM_HttpParseRequest",
    "BM_JsonParse",
    "BM_JsonSerializeHits",
    "BM_QueryCacheHit",
    "BM_ServiceHandleCachedQuery",
    "BM_ServiceHandleUncachedQuery",
    "BM_MergeTopKHits",
    "BM_ShardSetQueryBatch",
    "BM_RouterScatterGather",
]

BENCH_SCHEMA_VERSION = 1

TIME_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times(path):
    """Returns {benchmark name: best real_time in ns} for real runs.

    Aggregate rows (mean/median/stddev) and errored rows (SkipWithError
    leaves no timing fields) are dropped; repetitions keep the best run
    to damp CI noise. Times are normalized to nanoseconds regardless of
    the benchmark's reporting unit.
    """
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        if bench.get("error_occurred"):
            continue
        unit = TIME_UNIT_TO_NS.get(bench.get("time_unit", "ns"))
        if unit is None or "real_time" not in bench:
            continue
        t = float(bench["real_time"]) * unit
        times[bench["name"]] = min(t, times.get(bench["name"], t))
    return times


def diff_names(expected, actual):
    """Readable added/removed diff between two name collections."""
    removed = sorted(set(expected) - set(actual))
    added = sorted(set(actual) - set(expected))
    lines = []
    for name in removed:
        lines.append(f"  - {name}  (expected but missing)")
    for name in added:
        lines.append(f"  + {name}  (new, not in baseline)")
    return lines


def run_speedup(args):
    try:
        times = load_times(args.json_path)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench guard: cannot read {args.json_path}: {err}",
              file=sys.stderr)
        return 1
    failures = []
    checked = 0
    for prefix in GUARDED:
        pairs = [(name, t) for name, t in times.items()
                 if name.startswith(prefix + "/")]
        serial = [t for name, t in pairs if name.endswith(SERIAL_SUFFIX)]
        parallel = [t for name, t in pairs if name.endswith(PARALLEL_SUFFIX)]
        if not serial or not parallel:
            want = [prefix + SERIAL_SUFFIX, prefix + PARALLEL_SUFFIX]
            have = [name for name, _ in pairs]
            failures.append(f"{prefix}: missing serial or 4-thread run")
            failures.extend(diff_names(want, have))
            continue
        speedup = serial[0] / parallel[0]
        checked += 1
        status = "ok" if speedup >= args.threshold else "FAIL"
        print(f"{prefix}: serial {serial[0]:.1f}ns, 4-thread "
              f"{parallel[0]:.1f}ns, speedup {speedup:.2f}x [{status}]")
        if speedup < args.threshold:
            failures.append(
                f"{prefix}: 4-thread speedup {speedup:.2f}x below "
                f"threshold {args.threshold}x")

    if not checked and not failures:
        failures.append("no guarded benchmarks found in the JSON output")
    for failure in failures:
        print(f"bench guard: {failure}", file=sys.stderr)
    return 1 if failures else 0


def trajectory_kernels(times):
    return {name: t for name, t in sorted(times.items())
            if any(name.startswith(p + "/") or name == p
                   for p in TRAJECTORY_PREFIXES)}


def run_emit(args):
    times = {}
    for json_path in args.json_paths:
        try:
            loaded = load_times(json_path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench guard: cannot read {json_path}: {err}",
                  file=sys.stderr)
            return 1
        clashes = sorted(set(times) & set(loaded))
        if clashes:
            print(f"bench guard: {json_path} re-reports "
                  f"{', '.join(clashes)}; each benchmark must come from "
                  "exactly one file", file=sys.stderr)
            return 1
        times.update(loaded)
    kernels = trajectory_kernels(times)
    if not kernels:
        print("bench guard: no trajectory kernels found in the JSON output",
              file=sys.stderr)
        return 1
    snapshot = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "pr": args.pr,
        "commit": args.commit,
        "config": {
            "threads": args.threads,
            "dispatch_path": args.dispatch_path,
            "build_type": args.build_type,
        },
        "kernels": {name: round(t, 2) for name, t in kernels.items()},
    }
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench guard: wrote {len(kernels)} kernels to {args.out} "
          f"(pr {args.pr}, path {args.dispatch_path})")
    return 0


def load_snapshot(path):
    with open(path) as f:
        snap = json.load(f)
    if snap.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {snap.get('schema_version')} "
            f"!= expected {BENCH_SCHEMA_VERSION}")
    if not isinstance(snap.get("kernels"), dict):
        raise ValueError(f"{path}: missing kernels map")
    return snap


def find_baseline(baseline_dir, current_pr):
    """Newest committed BENCH_<pr>.json with pr below the current one."""
    best = None
    for path in glob.glob(os.path.join(baseline_dir, "BENCH_*.json")):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if not m:
            continue
        pr = int(m.group(1))
        if pr >= current_pr:
            continue
        if best is None or pr > best[0]:
            best = (pr, path)
    return best


def run_compare(args):
    try:
        current = load_snapshot(args.current)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        print(f"bench guard: cannot read {args.current}: {err}",
              file=sys.stderr)
        return 1
    if args.baseline:
        base_path = args.baseline
        base_pr = None
    else:
        if not args.baseline_dir:
            print("bench guard: compare needs --baseline or --baseline-dir",
                  file=sys.stderr)
            return 1
        baseline = find_baseline(args.baseline_dir, current["pr"])
        if baseline is None:
            print(f"bench guard: no baseline BENCH_*.json below pr "
                  f"{current['pr']} in {args.baseline_dir}; "
                  "nothing to compare")
            return 0
        base_pr, base_path = baseline
    try:
        base = load_snapshot(base_path)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        print(f"bench guard: cannot read {base_path}: {err}", file=sys.stderr)
        return 1
    if base_pr is None:
        base_pr = base.get("pr", "?")

    def in_scope(name):
        return (not args.only_prefix or
                any(name.startswith(p) for p in args.only_prefix))

    base_kernels = {n: t for n, t in base["kernels"].items() if in_scope(n)}
    cur_kernels = {n: t for n, t in current["kernels"].items()
                   if in_scope(n)}
    failures = []
    missing = sorted(set(base_kernels) - set(cur_kernels))
    if missing:
        failures.append(
            f"{len(missing)} kernel(s) from pr {base_pr} disappeared "
            f"from the current run:")
        failures.extend(diff_names(base_kernels, cur_kernels))

    scope = ""
    if args.only_prefix:
        scope = f", scope {'|'.join(args.only_prefix)}"
    print(f"trajectory: pr {base_pr} ({base_path}) -> pr {current['pr']}, "
          f"tolerance {args.tolerance:.0%}{scope}")
    width = max((len(n) for n in cur_kernels), default=10)
    counts = {"improved": 0, "regressed": 0, "ok": 0, "new": 0}
    for name in sorted(cur_kernels):
        cur_ns = cur_kernels[name]
        if name not in base_kernels:
            counts["new"] += 1
            print(f"  {name:<{width}}  {cur_ns:>12.1f}ns  (new)")
            continue
        base_ns = base_kernels[name]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        if ratio > 1.0 + args.tolerance:
            status = "FAIL"
            counts["regressed"] += 1
            failures.append(
                f"{name}: {base_ns:.1f}ns -> {cur_ns:.1f}ns "
                f"({ratio - 1.0:+.1%}) exceeds {args.tolerance:.0%} "
                f"regression tolerance")
        elif ratio < 1.0 - args.tolerance:
            status = "improved"
            counts["improved"] += 1
        else:
            status = "ok"
            counts["ok"] += 1
        print(f"  {name:<{width}}  {base_ns:>12.1f}ns -> {cur_ns:>12.1f}ns  "
              f"({ratio - 1.0:+6.1%}) [{status}]")
    print(f"bench guard: {len(cur_kernels)} kernel(s) compared: "
          f"{counts['improved']} improved, {counts['regressed']} regressed, "
          f"{counts['ok']} within tolerance, {counts['new']} new")

    for failure in failures:
        print(f"bench guard: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # Legacy interface: a bare JSON path as the first argument runs the
    # speedup guard, exactly as before the subcommands existed.
    if argv and argv[0] not in ("speedup", "emit", "compare", "-h",
                                "--help"):
        argv = ["speedup"] + argv

    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    p_speed = sub.add_parser("speedup", help="serial vs 4-thread guard")
    p_speed.add_argument("json_path", help="google-benchmark JSON output")
    p_speed.add_argument("--threshold", type=float, default=0.9,
                         help="minimum acceptable parallel/serial speedup")
    p_speed.set_defaults(func=run_speedup)

    p_emit = sub.add_parser("emit", help="write a BENCH_<pr>.json snapshot")
    p_emit.add_argument("json_paths", nargs="+",
                        help="google-benchmark JSON output file(s); "
                        "kernels are merged across them")
    p_emit.add_argument("--pr", type=int, required=True)
    p_emit.add_argument("--out", required=True)
    p_emit.add_argument("--commit", default="unknown")
    p_emit.add_argument("--threads", type=int, default=4)
    p_emit.add_argument("--build-type", default="Release")
    p_emit.add_argument("--dispatch-path", default="unknown")
    p_emit.set_defaults(func=run_emit)

    p_cmp = sub.add_parser("compare",
                           help="compare a snapshot against the trajectory")
    p_cmp.add_argument("current", help="freshly emitted BENCH json")
    p_cmp.add_argument("--baseline-dir",
                       help="directory holding committed BENCH_*.json; "
                       "the newest snapshot below the current pr is used")
    p_cmp.add_argument("--baseline",
                       help="explicit baseline snapshot file; overrides "
                       "--baseline-dir discovery (CI pins the serve-path "
                       "gate to ci/BENCH_8.json this way)")
    p_cmp.add_argument("--tolerance", type=float, default=0.15,
                       help="max tolerated per-kernel slowdown fraction")
    p_cmp.add_argument("--only-prefix", action="append",
                       help="restrict the comparison to kernels whose name "
                       "starts with this prefix (repeatable)")
    p_cmp.set_defaults(func=run_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
