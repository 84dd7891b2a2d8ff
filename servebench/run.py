#!/usr/bin/env python3
"""Serving benchmark: one command that builds the runner, runs one
workload against the serving stack, checks every reply, and prints the
metrics.

  python3 servebench/run.py --workload query-50k --seed 1 --seconds 15 \\
      --trace 0

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. --repeat N runs N seeds (seed, seed+1, ...)
and prints each metric's median, quartiles and spread instead; --sets K
repeats that K times and prints how far each later median moved.

The build goes to $CARGO_TARGET_DIR/servebench, or .bench_build/servebench
when it is unset, relative to the checkout root.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "servebench"


def build():
    """Configures (once) and builds the runner; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "servebench_runner", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return out / "servebench_runner"


def run_once(runner, workload, seed, seconds, trace):
    """Runs one measured run; returns the raw sample JSON."""
    tag = f"{workload}-{seed}-{trace}-{os.getpid()}"
    workdir = build_dir() / "work" / tag
    out_file = build_dir() / "runs" / f"{tag}.json"
    workdir.parent.mkdir(parents=True, exist_ok=True)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    command = [str(runner), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out_file), "--workdir", str(workdir)]
    # Own process group, so a timeout stops the serving child as well.
    process = subprocess.Popen(command, stdout=sys.stderr, stderr=sys.stderr,
                               start_new_session=True)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError(f"{workload} run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        raise RuntimeError(f"runner exited with code {code}")
    with open(out_file, encoding="utf-8") as fh:
        return json.load(fh)


def benchmark_metrics(kind):
    """Metric names BENCHMARK.json lists for `kind` (end_to_end or
    per_layer), in file order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def reason_checks(workload, m, raw):
    """The per-layer facts each workload was chosen for, as
    (description, passed) pairs; README.md records any that fail."""
    v = {name: metric["value"] for name, metric in m.items()}
    if workload == "query-50k":
        handle = v["serve.handle_ms"]
        return [
            ("core.score_ms + core.select_ms >= 0.5 * serve.handle_ms",
             v["core.score_ms"] + v["core.select_ms"] >= 0.5 * handle),
            ("core.fold_in_ms <= 0.05 * serve.handle_ms",
             v["core.fold_in_ms"] <= 0.05 * handle),
        ]
    if workload == "router-4x20k-zipf":
        sent = metrics.ratio(raw["repeats_sent"], len(raw["query_ms"]))
        return [
            ("core.rows_scanned_per_query == 80000",
             v["core.rows_scanned_per_query"] == 80000),
            (f"|serve.cache_hit_ratio - sent repeat share {sent:.4f}| <= 0.02",
             abs(v["serve.cache_hit_ratio"] - sent) <= 0.02),
        ]
    if workload == "live-20k-wide":
        # Reads take the tombstone path once a delete lands.
        largest_other = max(v["core.score_ms"], v["core.select_all_ms"],
                            v["text.analyze_us"] / 1000.0,
                            v["serve.json_us"] / 1000.0,
                            v["serve.http_parse_us"] / 1000.0)
        return [("core.fold_in_ms is the largest read stage",
                 v["core.fold_in_ms"] > largest_other)]
    return []


def measure(runner, workload, seed, seconds, trace):
    """One run: (report lines, result object, every computed metric)."""
    raw = run_once(runner, workload, seed, seconds, trace)
    host = raw["host"]
    lines = [
        f"workload {workload} seed {seed} seconds {seconds} trace {trace}",
        f"host nproc={host['nproc']} cpu={host['cpu_model']!r} "
        f"simd={host['simd']} loadavg_1m={host['loadavg_1m']} "
        f"steal_share={host['steal_share']:.4f} "
        f"LSI_THREADS={raw['lsi_threads']:g} "
        f"query_clients={raw['query_clients']:g} "
        f"write_clients={raw['write_clients']:g}",
        f"inputs documents={raw['documents']:g} terms={raw['terms']:g} "
        f"stated_repeat_share={raw['stated_repeat_share']} "
        f"sent_repeat_share="
        f"{metrics.ratio(raw['repeats_sent'], len(raw['query_ms'])):.4f}",
        f"checks attempted={raw['attempted']:g} failed={raw['failed']:g} "
        f"mismatched={raw['mismatched']:g} "
        f"malformed_receipts={raw['malformed_receipts']:g}",
    ]
    if trace:
        computed = metrics.per_layer(raw)
        names = benchmark_metrics("per_layer")
        for description, passed in reason_checks(workload, computed, raw):
            lines.append(f"reason {'PASS' if passed else 'FAIL'} {description}")
    else:
        computed = metrics.end_to_end(raw)
        names = benchmark_metrics("end_to_end")
    for name, metric in computed.items():
        count = metric.get("samples")
        suffix = f" (n={count})" if count is not None else ""
        lines.append(f"metric {name} {metric['value']:.6g} {metric['unit']}"
                     f"{suffix}")
    missing = [n for n in names if n not in computed]
    if missing:
        raise RuntimeError("metrics not measured: " + ", ".join(missing))
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": computed[n]["value"],
                        "unit": computed[n]["unit"]} for n in names},
    }
    return lines, result, computed


def steadiness(runner, args):
    """Runs --sets sets of --repeat seeds and prints each metric's
    median, quartiles and spread, and later sets' median shift."""
    sets = []
    for s in range(args.sets):
        values = {}
        for i in range(args.repeat):
            seed = args.seed + i
            lines, result, computed = measure(runner, args.workload, seed,
                                              args.seconds, args.trace)
            log("\n".join(lines))
            if not result["correct"]:
                raise RuntimeError(f"incorrect run at seed {seed}")
            for name, metric in computed.items():
                values.setdefault(name, []).append(metric["value"])
        sets.append({n: metrics.summarize(v) for n, v in values.items()})
        print(f"set {s + 1}: {args.workload} trace={args.trace} "
              f"seeds {args.seed}..{args.seed + args.repeat - 1}")
        for name, summary in sets[-1].items():
            shift = ""
            if s > 0:
                first = sets[0][name]["median"]
                shift = (f" shift_vs_set1="
                         f"{metrics.ratio(summary['median'] - first, abs(first)):+.4f}")
            print(f"  {name:32s} median={summary['median']:.6g} "
                  f"q1={summary['q1']:.6g} q3={summary['q3']:.6g} "
                  f"spread={summary['spread']:.4f}{shift}")
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "sets": sets}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="query-50k, live-20k-wide or router-4x20k-zipf")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    try:
        runner = build()
        if args.repeat > 0:
            steadiness(runner, args)
            return 0
        lines, result, _ = measure(runner, args.workload, args.seed,
                                   args.seconds, args.trace)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            KeyError, ValueError) as error:
        log(f"servebench: {error}")
        return 1
    print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
