#!/bin/sh
# Smoke test for the lsi::serve stack: index a corpus, boot `lsi_tool
# serve` on an ephemeral port, probe every route with http_probe.py's
# one-shot mode, run a short closed-loop load, then SIGTERM under load
# and assert a graceful drain. Arguments: $1 = lsi_tool binary, $2 =
# corpus TSV. Needs python3. Exits nonzero on any failure.
set -e

TOOL="$1"
CORPUS="$2"
PROBE="$(dirname "$0")/http_probe.py"
WORKDIR="$(mktemp -d)"
ENGINE="$WORKDIR/smoke.engine"
LOG="$WORKDIR/serve.log"
SERVER_PID=""
LOAD_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  [ -n "$LOAD_PID" ] && kill -9 "$LOAD_PID" 2>/dev/null
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

"$TOOL" index "$CORPUS" "$ENGINE" 10 tfidf | grep -q "indexed 45 documents"

# Boot on an ephemeral port; the startup line reports the real one.
# The log exists before the server starts, so the first poll below never
# reads a file the background shell has not opened yet.
: > "$LOG"
"$TOOL" serve "$ENGINE" --port=0 --host=127.0.0.1 > "$LOG" 2>&1 &
SERVER_PID=$!

PORT=""
i=0
while [ $i -lt 100 ]; do
  PORT="$(sed -n 's/^serving .* on 127\.0\.0\.1:\([0-9][0-9]*\) .*/\1/p' \
    "$LOG")"
  [ -n "$PORT" ] && break
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server died during startup:" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.1
  i=$((i + 1))
done
[ -n "$PORT" ] || { echo "server never reported its port" >&2; exit 1; }

# Liveness.
python3 "$PROBE" "$PORT" GET /healthz > "$WORKDIR/healthz.out"
grep -q "^HTTP 200" "$WORKDIR/healthz.out"
grep -q "^ok" "$WORKDIR/healthz.out"

# A query returns the documented JSON shape with astro documents on top.
python3 "$PROBE" "$PORT" POST /query \
  '{"query": "galaxies and planets", "top_k": 3}' > "$WORKDIR/query.out"
grep -q "^HTTP 200" "$WORKDIR/query.out"
grep -q "^content-type: application/json" "$WORKDIR/query.out"
grep -q "astro" "$WORKDIR/query.out"
tail -n 1 "$WORKDIR/query.out" | python3 -c '
import json, sys
hits = json.load(sys.stdin)["hits"]
assert len(hits) == 3, hits
assert all(set(h) == {"document", "name", "score"} for h in hits), hits
'

# Related terms.
python3 "$PROBE" "$PORT" POST /related '{"term": "galaxy", "top_k": 3}' \
  | grep -q '"related"'

# Prometheus exposition with the right content type.
python3 "$PROBE" "$PORT" GET /metrics > "$WORKDIR/metrics.out"
grep -q "^HTTP 200" "$WORKDIR/metrics.out"
grep -q "^content-type: text/plain; version=0.0.4" "$WORKDIR/metrics.out"
grep -q "^# TYPE lsi_serve_requests_2xx counter" "$WORKDIR/metrics.out"
grep -q "^lsi_serve_requests_2xx_total" "$WORKDIR/metrics.out"
grep -q "^lsi_engine_query_latency_ms_count" "$WORKDIR/metrics.out"

# Status snapshot is valid JSON mentioning the engine shape.
python3 "$PROBE" "$PORT" GET /statusz > "$WORKDIR/statusz.out"
grep -q "^HTTP 200" "$WORKDIR/statusz.out"
grep -q '"documents":45' "$WORKDIR/statusz.out"

# Malformed JSON is a 400, not a dead connection (nonzero probe exit).
if python3 "$PROBE" "$PORT" POST /query '{oops' > "$WORKDIR/bad.out"; then
  echo "expected nonzero exit for a 400 response" >&2
  exit 1
fi
grep -q "^HTTP 400" "$WORKDIR/bad.out"

# Unknown route.
if python3 "$PROBE" "$PORT" GET /nope > "$WORKDIR/nope.out"; then
  echo "expected nonzero exit for a 404 response" >&2
  exit 1
fi
grep -q "^HTTP 404" "$WORKDIR/nope.out"

# Short closed-loop load: every response accounted for, none errored.
python3 "$PROBE" "$PORT" load 4 1 > "$WORKDIR/load.json"
python3 -c '
import json, sys
report = json.load(open(sys.argv[1]))
assert report["errors"] == 0 and report["http_other"] == 0, report
' "$WORKDIR/load.json"

# Graceful drain under load: SIGTERM while two clients are mid-run must
# still exit 0 after finishing in-flight work. The clients see answers
# until the drain, then refused connections, and every request they
# sent ends as one or the other (the probe's exit status).
python3 "$PROBE" "$PORT" load 2 2 > "$WORKDIR/drain.json" &
LOAD_PID=$!
sleep 0.3
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
if [ "$STATUS" -ne 0 ]; then
  echo "server exited $STATUS on SIGTERM:" >&2
  cat "$LOG" >&2
  exit 1
fi
grep -q "drained, exiting" "$LOG"
wait "$LOAD_PID" || {
  echo "load under drain lost a request or got no answer:" >&2
  cat "$WORKDIR/drain.json" >&2
  exit 1
}
LOAD_PID=""

# A worker thread can trip an LSI_CHECK and abort while the acceptor
# still drains cleanly; the server log must be free of invariant
# failures for the run to count.
if grep -q "LSI_CHECK failed" "$LOG"; then
  echo "LSI_CHECK failure in server log:" >&2
  cat "$LOG" >&2
  exit 1
fi

echo "serve smoke: OK"
