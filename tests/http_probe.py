#!/usr/bin/env python3
"""A small HTTP prober for the serve and route smoke tests.

  http_probe.py PORT METHOD PATH [BODY]
      Sends one request to 127.0.0.1:PORT and prints "HTTP <status>",
      the response headers (names lower-cased), a blank line and the
      body. Exits 0 iff the status is 2xx.

  http_probe.py PORT load CLIENTS SECONDS
      Runs CLIENTS threads for SECONDS, each a closed loop over one
      keep-alive connection: send a POST /query, read the whole
      response, repeat. Queries rotate through a small mix, so behind a
      router the cache both hits and misses. Every request ends as exactly
      one of a 2xx, a 503 (the client waits out its Retry-After, at most
      1 s, before the next request), another status, or an error (no
      complete response: refused, reset, or closed mid-reply; the client
      reconnects). Prints one JSON line with those counts, "requests"
      (the number sent), "qps" and "p50_ms". Exits 0 iff the counts add
      up to the requests sent and at least one request got a 2xx.

route_smoke.sh imports it (request, metric) to drive a connection of
its own.
"""

import http.client
import json
import statistics
import sys
import threading
import time

QUERIES = [
    "galaxies and planets", "stellar evolution", "genome sequencing",
    "market volatility", "neural networks", "ocean currents",
]


def request(conn, method, path, body=None):
    """Sends one request on `conn`; returns (response, body text)."""
    headers = {} if body is None else {"Content-Type": "application/json"}
    conn.request(method, path, body, headers)
    response = conn.getresponse()
    return response, response.read().decode()


def metric(text, name):
    """The value of sample `name` in a Prometheus exposition."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError("no %s in /metrics" % name)


def one_shot(port, method, path, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    response, text = request(conn, method, path, body)
    print("HTTP %d" % response.status)
    for name, value in response.getheaders():
        print("%s: %s" % (name.lower(), value))
    print()
    print(text)
    return 0 if 200 <= response.status < 300 else 1


def closed_loop(port, client, deadline, report, lock):
    counts = {"requests": 0, "http_2xx": 0, "http_503": 0, "http_other": 0,
              "errors": 0}
    latencies = []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    i = client
    try:
        while time.monotonic() < deadline:
            body = json.dumps({"query": QUERIES[i % len(QUERIES)],
                               "top_k": 5})
            i += 1
            counts["requests"] += 1
            start = time.monotonic()
            try:
                response, _ = request(conn, "POST", "/query", body)
            except (OSError, http.client.HTTPException):
                counts["errors"] += 1
                conn.close()  # The next request reconnects.
                time.sleep(0.01)  # A stopped server refuses at once.
                continue
            latencies.append((time.monotonic() - start) * 1e3)
            if 200 <= response.status < 300:
                counts["http_2xx"] += 1
            elif response.status == 503:
                counts["http_503"] += 1
                retry = response.getheader("Retry-After", "1")
                time.sleep(min(float(retry) if retry.isdigit() else 1.0, 1.0))
            else:
                counts["http_other"] += 1
            if response.will_close:
                conn.close()
    finally:
        # Merged even if the loop dies, so lost requests show up as a
        # gap between "requests" and the outcome counts.
        conn.close()
        with lock:
            for key, value in counts.items():
                report[key] += value
            report["latencies"].extend(latencies)


def load(port, clients, seconds):
    report = {"requests": 0, "http_2xx": 0, "http_503": 0, "http_other": 0,
              "errors": 0, "latencies": []}
    lock = threading.Lock()
    deadline = time.monotonic() + seconds
    threads = [threading.Thread(target=closed_loop,
                                args=(port, c, deadline, report, lock))
               for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    latencies = report.pop("latencies")
    outcomes = (report["http_2xx"] + report["http_503"] +
                report["http_other"] + report["errors"])
    report["qps"] = round(len(latencies) / seconds, 1)
    report["p50_ms"] = round(statistics.median(latencies), 3) \
        if latencies else None
    print(json.dumps(report, sort_keys=True))
    return 0 if outcomes == report["requests"] and report["http_2xx"] else 1


def main(argv):
    if len(argv) == 4 and argv[1] == "load":
        return load(int(argv[0]), int(argv[2]), float(argv[3]))
    if len(argv) in (3, 4):
        return one_shot(int(argv[0]), argv[1], argv[2],
                        argv[3] if len(argv) == 4 else None)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
