#!/bin/sh
# Smoke test for the routed path: index a corpus, boot two `lsi_tool
# serve` backends and one `lsi_tool route` in front of them on ephemeral
# ports, send 20 queries through the router over one client connection,
# repeat the first (answered from the router's result cache, the same
# bytes), then a 65-query batch (400) and one more query (200), and
# assert from the router's /metrics one cache hit and that its forwards
# reused pooled keep-alive sockets (lsi.shard.connects <= 2, one per
# backend).
# Arguments: $1 = lsi_tool binary, $2 = corpus TSV. Needs python3
# (http_probe.py drives the requests). Exits nonzero on any failure.
set -e

TOOL="$1"
CORPUS="$2"
WORKDIR="$(mktemp -d)"
ENGINE="$WORKDIR/smoke.engine"
PIDS=""
cleanup() {
  for pid in $PIDS; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

"$TOOL" index "$CORPUS" "$ENGINE" 10 tfidf | grep -q "indexed 45 documents"

# Starts "$@" in the background with its output in log file $LOG_NAME
# and records its pid.
start() {
  log="$WORKDIR/$LOG_NAME"
  : > "$log"
  "$@" > "$log" 2>&1 &
  PIDS="$PIDS $!"
  LAST_PID=$!
}

# Prints the port that the startup line in $1 reports, waiting up to
# 10 s for it; $2 is the line's leading word.
wait_port() {
  i=0
  while [ $i -lt 100 ]; do
    port="$(sed -n "s/^$2 .* on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p" "$1")"
    if [ -n "$port" ]; then
      echo "$port"
      return 0
    fi
    if ! kill -0 "$LAST_PID" 2>/dev/null; then
      echo "process died during startup:" >&2
      cat "$1" >&2
      return 1
    fi
    sleep 0.1
    i=$((i + 1))
  done
  echo "no port reported in $1" >&2
  return 1
}

LOG_NAME=backend0.log
start "$TOOL" serve "$ENGINE" --port=0 --host=127.0.0.1
B0="$(wait_port "$WORKDIR/backend0.log" serving)"
LOG_NAME=backend1.log
start "$TOOL" serve "$ENGINE" --port=0 --host=127.0.0.1
B1="$(wait_port "$WORKDIR/backend1.log" serving)"
LOG_NAME=router.log
start "$TOOL" route --shard="127.0.0.1:$B0" --shard="127.0.0.1:$B1" \
  --port=0 --host=127.0.0.1
ROUTER="$(wait_port "$WORKDIR/router.log" routing)"

PYTHONPATH="$(dirname "$0")" PYTHONDONTWRITEBYTECODE=1 \
  python3 - "$ROUTER" <<'EOF'
import http.client
import json
import sys

from http_probe import metric, request

port = int(sys.argv[1])
conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
words = ["galaxies", "planets", "stars", "orbit", "telescope"]
replies = []
for i in range(20):
    # Distinct queries: each one misses the router cache and scatters.
    query = "%s %s %d" % (words[i % 5], words[(i + 2) % 5], i)
    body = json.dumps({"query": query, "top_k": 3})
    response, payload = request(conn, "POST", "/query", body)
    assert response.status == 200, (response.status, payload)
    assert response.getheader("X-Lsi-Partial") is None, payload
    assert len(json.loads(payload)["hits"]) == 3, payload
    replies.append((body, payload))

# A repeat is answered from the router's cache, byte for byte.
body, first = replies[0]
response, payload = request(conn, "POST", "/query", body)
assert response.status == 200, (response.status, payload)
assert payload == first, (payload, first)

# A batch over the 64-query cap is refused by the router itself, and
# the backends stay in service for the next query.
body = json.dumps({"queries": ["galaxies %d" % i for i in range(65)]})
response, payload = request(conn, "POST", "/query", body)
assert response.status == 400, (response.status, payload)
body = json.dumps({"query": "galaxies and planets", "top_k": 3})
response, payload = request(conn, "POST", "/query", body)
assert response.status == 200, (response.status, payload)

response, metrics = request(conn, "GET", "/metrics")
assert response.status == 200, response.status
connects = metric(metrics, "lsi_shard_connects_total")
reuses = metric(metrics, "lsi_shard_pool_reuses_total")
hits = metric(metrics, "lsi_serve_cache_hits_total")
assert hits == 1, "router cache hits: %d" % hits
assert connects <= 2, "router opened %d connections" % connects
assert reuses >= 38, "router reused pooled sockets %d times" % reuses
print("route smoke: %d connects, %d reuses, %d cache hit" %
      (connects, reuses, hits))
EOF

echo "route smoke: OK"
