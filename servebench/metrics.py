"""Metric math for the serving benchmark.

Turns one run's raw samples (the JSON servebench_runner writes) into
named metrics, and a set of runs into medians, quartiles and spreads.
Every function here is pure so test_metrics.py can pin its rules.
"""

import math
import statistics

# Percentiles are reported only with this many samples beyond them.
MIN_SAMPLES_BEYOND = 10
# The runner samples the host's steal share every STEAL_TICK_S seconds.
STEAL_TICK_S = 0.1
# Latency medians keep, in each window of this many seconds, the
# requests that started in its least-stolen steal samples.
CALM_WINDOW_S = 1.0


def ratio(numerator, denominator):
    """numerator / denominator, or 0.0 when the base is empty."""
    return numerator / denominator if denominator else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(samples, q):
    """Nearest-rank q-quantile of `samples` and the count beyond it.

    Returns (value, beyond); value is None when fewer than
    MIN_SAMPLES_BEYOND samples lie beyond the rank, because such a tail
    is a handful of events, not a distribution.
    """
    n = len(samples)
    if n == 0:
        return None, 0
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_SAMPLES_BEYOND:
        return None, beyond
    return sorted(samples)[rank - 1], beyond


def spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return ratio(q3 - q1, abs(mid))


def summarize(values):
    """Median, quartiles and spread of one metric over a set of runs."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "spread": 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread(values), "n": len(values)}


def steal_at(times, steal_share):
    """Steal share of the sample covering each time (since load start)."""
    if not steal_share:
        return [0.0] * len(times)
    last = len(steal_share) - 1
    return [steal_share[min(last, int(t / STEAL_TICK_S))] for t in times]


def calmest(start_times, exposure, window_s=CALM_WINDOW_S):
    """Indices, in time order, of the requests that started in the
    least-stolen steal samples of their window.

    On a shared host the hypervisor lends this machine's CPUs to other
    guests for stretches of a run ("steal"), and everything in such a
    stretch slows down with it: on a 4-vCPU guest, per-second median
    latency rose about 60% as steal went from 2% to 15%, and whole runs
    moved with it. Within each window only the requests at the window's
    lowest steal are kept, so every window of the run is measured, and
    a steal-free window keeps all of its requests.
    """
    lowest = {}
    for t, e in zip(start_times, exposure):
        w = int(t // window_s)
        lowest[w] = min(e, lowest.get(w, e))
    return [i for i, (t, e) in enumerate(zip(start_times, exposure))
            if e <= lowest[int(t // window_s)]]


def calm_samples(samples, start_times, steal_share, from_s=0.0):
    """The samples of the least-stolen requests (see calmest) among
    those that started at or after `from_s`."""
    kept = [i for i, t in enumerate(start_times) if t >= from_s]
    starts = [start_times[i] for i in kept]
    calm = calmest(starts, steal_at(starts, steal_share))
    return [samples[kept[i]] for i in calm]


def _timing(metrics, name, samples, unit="ms", q=None):
    """Adds a timing metric with its sample count (median unless q)."""
    if q is None:
        metrics[name] = {"value": median(samples), "unit": unit,
                         "samples": len(samples)}
        return
    value, beyond = percentile(samples, q)
    if value is not None:
        metrics[name] = {"value": value, "unit": unit,
                         "samples": len(samples), "beyond": beyond}


def end_to_end(run):
    """Client-visible metrics of one untraced run.

    The gated latency, query_p50_ms, is the median over the least-stolen
    requests of each window (see calmest) from `measured_from_s` on; the
    report prints the whole-run figures beside it.
    """
    m = {}
    steal = run["steal_share"]
    from_s = run.get("measured_from_s", 0.0)
    _timing(m, "setup_s", run["serving"]["setup_s"], unit="s")
    _timing(m, "query_p50_ms",
            calm_samples(run["query_ms"], run["query_start_s"], steal, from_s))
    _timing(m, "query_p50_all_ms", run["query_ms"])
    _timing(m, "query_p95_all_ms", run["query_ms"], q=0.95)
    m["query_qps"] = {"value": ratio(len(run["query_ms"]), run["elapsed_s"]),
                      "unit": "1/s", "samples": len(run["query_ms"])}
    m["p_at_10"] = {"value": statistics.fmean(run["p_at_10"])
                    if run["p_at_10"] else 0.0,
                    "unit": "ratio", "samples": len(run["p_at_10"])}
    m["rss_mb"] = {"value": run["serving"]["rss_mb"], "unit": "MB"}
    m["failed_ratio"] = {"value": ratio(run["failed"], run["attempted"]),
                         "unit": "ratio", "samples": run["attempted"]}
    m["steal_share"] = {"value": statistics.fmean(steal) if steal else 0.0,
                        "unit": "ratio", "samples": len(steal)}
    if run["write_ms"]:
        _timing(m, "write_p50_ms",
                calm_samples(run["write_ms"], run["write_start_s"], steal,
                             from_s))
        _timing(m, "write_p50_all_ms", run["write_ms"])
        _timing(m, "write_p95_all_ms", run["write_ms"], q=0.95)
        m["write_ops_s"] = {"value": ratio(len(run["write_ms"]),
                                           run["elapsed_s"]),
                            "unit": "1/s", "samples": len(run["write_ms"])}
    return m


def cache_ratios(run):
    """Hit ratios of the front cache (the first one a query meets) and,
    behind a router, of the backend caches together.

    QueryCache counters are process-wide, so behind a router the split
    comes from request counts: a router miss scatters to every shard,
    and a hedge adds one backend request.
    """
    c = run["serving"]["counters"]
    shards = run["shards"]
    if not shards:
        return ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]), 0.0
    scattered = ratio(c["backend_queries"] - c["hedges"], shards)
    router_hits = c["front_queries"] - scattered
    front = ratio(router_hits, c["front_queries"])
    backend = ratio(c["cache_hits"] - router_hits, c["backend_queries"])
    return front, backend


def per_layer(run):
    """Per-layer metrics of one traced run (see README.md for the table).

    Layers a workload does not exercise report 0.
    """
    t = run["serving"].get("trace", {})
    r = run["serving"].get("replay", {})
    c = run["serving"]["counters"]
    shards = run["shards"]
    med = lambda key, src=r: median(src.get(key, []))  # noqa: E731
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("text.analyze_us", med("analyze_us"), "us")
    put("text.weight_matrix_s", r.get("weight_matrix_s", 0.0), "s")
    put("linalg.svd_s", r.get("svd_s", 0.0), "s")
    put("linalg.lanczos_iterations", r.get("lanczos_iterations", 0.0), "count")
    fold_in, search = med("fold_in_ms"), med("search_ms")
    select, select_all = med("select_ms"), med("select_all_ms")
    put("core.fold_in_ms", fold_in, "ms")
    put("core.search_ms", search, "ms")
    put("core.select_ms", select, "ms")
    put("core.select_all_ms", select_all, "ms")
    # Search ranks everything once any document is tombstoned.
    used_select = select_all if r.get("tombstone_path") else select
    put("core.score_ms", search - fold_in - used_select, "ms")
    put("core.tombstone_path_share",
        ratio(t.get("tombstoned_queries", 0), t.get("engine_queries", 0)),
        "ratio")
    put("core.rows_scanned_per_query",
        run["serving"]["rows_scanned_per_query"], "count")
    search_1t = med("search_1t_ms")
    put("par.search_speedup", ratio(search_1t, search) if search_1t else 1.0,
        "x")
    svd_1t = r.get("svd_1t_s")
    put("par.build_speedup", ratio(svd_1t, r.get("svd_s", 0.0))
        if svd_1t else 1.0, "x")
    queries = len(run["query_ms"])
    put("par.wait_ms", ratio(c["par_wait_ms"], queries), "ms")

    handle = med("handle_ms", t) if t.get("handle_ms") else med(
        "backend_handle_ms", t)
    front_handle = med("router_handle_ms", t) if shards else handle
    client_p50 = median(run["traced_query_ms"])
    analyze_ms = med("analyze_us") / 1000.0
    json_ms = med("json_us") / 1000.0
    put("serve.handle_ms", handle, "ms")
    put("serve.transport_ms", client_p50 - front_handle, "ms")
    put("serve.batch_wait_ms", handle - analyze_ms - search - json_ms, "ms")
    put("serve.batch_size_mean", ratio(c["batched_queries"], c["batches"]),
        "count")
    put("serve.http_parse_us", med("http_parse_us"), "us")
    put("serve.json_us", med("json_us"), "us")
    front_ratio, backend_ratio = cache_ratios(run)
    put("serve.cache_hit_ratio", front_ratio, "ratio")
    put("serve.cache_get_us", med("cache_get_us"), "us")

    scattered = ratio(c["backend_queries"] - c["hedges"], shards)
    put("shard.router_handle_ms", med("router_handle_ms", t), "ms")
    put("shard.backend_handle_ms", med("backend_handle_ms", t), "ms")
    put("shard.gather_overhead_ms", med("gather_overhead_ms", t), "ms")
    put("shard.merge_us", med("merge_us"), "us")
    put("shard.connects_per_query", ratio(c["connections"], scattered), "count")
    put("shard.hedges_per_query", ratio(c["hedges"], scattered), "count")
    put("shard.backend_cache_hit_ratio", backend_ratio, "ratio")

    put("live.write_handle_ms", med("write_handle_ms", t), "ms")
    put("live.wal_append_ms", med("wal_append_ms"), "ms")
    put("live.engine_copy_ms", med("engine_copy_ms"), "ms")
    put("live.fold_in_doc_ms", med("fold_in_doc_ms"), "ms")
    put("live.wal_bytes_per_write", r.get("wal_bytes_per_write", 0.0), "B")
    put("live.refreshes", c["refreshes"], "count")
    put("live.drift_mean_radians", c["drift_mean_radians"], "rad")
    e2e = end_to_end(run)
    value = lambda name: e2e[name]["value"] if name in e2e else 0.0  # noqa: E731
    put("live.write_p50_ms", value("write_p50_ms"), "ms")
    put("live.write_p95_ms", value("write_p95_all_ms"), "ms")
    put("live.write_ops_s", value("write_ops_s"), "1/s")

    # Stages timed on their own, against the latency they should explain.
    stages = analyze_ms + search + json_ms + med("http_parse_us") / 1000.0
    if shards:
        stages += med("merge_us") / 1000.0
    put("trace.coverage", ratio(stages, client_p50), "ratio")
    untraced = median(run["untraced_query_ms"])
    put("trace.overhead_pct", 100.0 * ratio(client_p50 - untraced, untraced),
        "%")
    put("client.failed_ratio", value("failed_ratio"), "ratio")
    put("client.query_p50_all_ms", value("query_p50_all_ms"), "ms")
    put("client.query_p95_ms", value("query_p95_all_ms"), "ms")
    put("client.query_qps", value("query_qps"), "1/s")
    put("client.steal_share", value("steal_share"), "ratio")
    return m
