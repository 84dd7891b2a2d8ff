#!/usr/bin/env python3
"""CI guards over google-benchmark output.

Two modes share this file because they share the JSON parsing:

  speedup  (default; also the legacy positional interface)
      Parallel SpMV must not be slower than serial: compares the
      1-thread and 4-thread timings of the threaded kernels and fails
      if 4 threads run below THRESHOLD x the serial throughput. The
      bar is generous (0.9x) so shared CI runners do not flake, but a
      parallel layer that actively hurts still trips it.

  ab
      Gates a change against its merge base, both measured on the same
      host in the same job. BASE_DIR and HEAD_DIR each hold one JSON
      file per run, paired by file name; ci/bench_ab.sh makes them,
      alternating base and head so each pair ran back to back. A row
      fails when head is slower than base in every pair and head's
      median exceeds base's median by more than base's interquartile
      range: each row is gated on its own measured spread, so there is
      no tolerance to tune. A row the base runs report that is missing
      from a head run, or from some of the base runs, also fails, with
      an added/removed diff. A row only head reports is listed as new;
      the merge base has nothing to compare it with.

Benchmarks that errored (e.g. an AVX2 variant skipped on a non-AVX2
host) carry no timing fields and are ignored everywhere. A benchmark
name that vanishes is never ignored: both modes fail loudly with an
added/removed diff.

Usage:
  bench_guard.py <benchmark_json> [--threshold 0.9]
  bench_guard.py speedup <benchmark_json> [--threshold 0.9]
  bench_guard.py ab <base_dir> <head_dir>
"""

import argparse
import json
import os
import statistics
import sys

GUARDED = ["BM_SparseMatVecThreads", "BM_GramApplyThreads"]
SERIAL_SUFFIX = "/1"
PARALLEL_SUFFIX = "/4"

# The ab gate's false-alarm rate rests on "slower in every pair": by
# chance alone a row is slower in all of 10 pairs once in 1024.
MIN_PAIRS = 10

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


def load_runs(directory):
    """Returns [(file name, {row: ns})] for every *.json run in directory,
    sorted by file name."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
    return [(n, load_times(os.path.join(directory, n))) for n in names]


def run_ab(args):
    try:
        base_runs = load_runs(args.base_dir)
        head_runs = load_runs(args.head_dir)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench guard: cannot read runs: {err}", file=sys.stderr)
        return 1
    base_names = [n for n, _ in base_runs]
    head_names = [n for n, _ in head_runs]
    if base_names != head_names:
        print("bench guard: base and head runs do not pair up by name:",
              file=sys.stderr)
        for line in diff_names(base_names, head_names):
            print(line, file=sys.stderr)
        return 1
    if len(base_runs) < MIN_PAIRS:
        print(f"bench guard: {len(base_runs)} pair(s) of runs; the gate "
              f"needs at least {MIN_PAIRS}", file=sys.stderr)
        return 1

    failures = []
    base_rows = set().union(*(times for _, times in base_runs))
    head_rows = set().union(*(times for _, times in head_runs))
    for side, runs in (("base", base_runs), ("head", head_runs)):
        for name, times in runs:
            if base_rows - set(times):
                failures.append(f"{side} run {name} lacks rows the base "
                                "runs report:")
                failures.extend(diff_names(base_rows, times))
    if failures:
        for failure in failures:
            print(f"bench guard: {failure}", file=sys.stderr)
        return 1

    print(f"bench guard: {len(base_runs)} base/head pairs; a row fails when "
          "head is slower in every pair and its median exceeds base's by "
          "more than base's IQR")
    width = max((len(n) for n in head_rows), default=10)
    for row in sorted(base_rows):
        base = [times[row] for _, times in base_runs]
        head = [times[row] for _, times in head_runs]
        slower = sum(h > b for b, h in zip(base, head))
        q1, _, q3 = statistics.quantiles(base, n=4)
        base_med = statistics.median(base)
        head_med = statistics.median(head)
        fail = slower == len(base) and head_med - base_med > q3 - q1
        change = head_med / base_med - 1.0 if base_med > 0 else float("inf")
        print(f"  {row:<{width}}  {base_med:>12.1f}ns -> {head_med:>12.1f}ns "
              f"({change:+6.1%}, base IQR {q3 - q1:.1f}ns, head slower "
              f"{slower}/{len(base)}) [{'FAIL' if fail else 'ok'}]")
        if fail:
            failures.append(
                f"{row}: {base_med:.1f}ns -> {head_med:.1f}ns "
                f"({change:+.1%}), slower in every pair and beyond base's "
                f"IQR of {q3 - q1:.1f}ns")
    for row in sorted(head_rows - base_rows):
        print(f"  {row:<{width}}  (new: not in the base runs)")
    print(f"bench guard: {len(base_rows)} row(s) compared, {len(failures)} "
          f"regressed, {len(head_rows - base_rows)} new")
    for failure in failures:
        print(f"bench guard: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # Legacy interface: a bare JSON path as the first argument runs the
    # speedup guard, exactly as before the subcommands existed.
    if argv and argv[0] not in ("speedup", "ab", "-h", "--help"):
        argv = ["speedup"] + argv

    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    p_speed = sub.add_parser("speedup", help="serial vs 4-thread guard")
    p_speed.add_argument("json_path", help="google-benchmark JSON output")
    p_speed.add_argument("--threshold", type=float, default=0.9,
                         help="minimum acceptable parallel/serial speedup")
    p_speed.set_defaults(func=run_speedup)

    p_ab = sub.add_parser("ab", help="merge base vs head, paired runs")
    p_ab.add_argument("base_dir", help="one JSON file per base run")
    p_ab.add_argument("head_dir", help="one JSON file per head run, named "
                      "as its paired base run")
    p_ab.set_defaults(func=run_ab)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
