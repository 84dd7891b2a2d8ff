#!/bin/sh
# Smoke test for the lsi::serve stack: index a corpus, boot `lsi_tool
# serve` on an ephemeral port, probe every route with lsi_loadgen's
# one-shot mode, run a short closed-loop load, then SIGTERM and assert a
# graceful drain. Arguments: $1 = lsi_tool binary, $2 = lsi_loadgen
# binary, $3 = corpus TSV. Exits nonzero on any failure.
set -e

TOOL="$1"
LOADGEN="$2"
CORPUS="$3"
WORKDIR="$(mktemp -d)"
ENGINE="$WORKDIR/smoke.engine"
LOG="$WORKDIR/serve.log"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
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
"$LOADGEN" --port="$PORT" --one "GET /healthz" > "$WORKDIR/healthz.out"
grep -q "^HTTP 200" "$WORKDIR/healthz.out"
grep -q "^ok" "$WORKDIR/healthz.out"

# A query returns the documented JSON shape with astro documents on top.
"$LOADGEN" --port="$PORT" --one "POST /query" \
  --body='{"query": "galaxies and planets", "top_k": 3}' \
  > "$WORKDIR/query.out"
grep -q "^HTTP 200" "$WORKDIR/query.out"
grep -q "application/json" "$WORKDIR/query.out"
grep -q '"hits"' "$WORKDIR/query.out"
grep -q "astro" "$WORKDIR/query.out"
if command -v python3 > /dev/null 2>&1; then
  tail -n 1 "$WORKDIR/query.out" | python3 -c '
import json, sys
hits = json.load(sys.stdin)["hits"]
assert len(hits) == 3, hits
assert all(set(h) == {"document", "name", "score"} for h in hits), hits
'
fi

# Related terms.
"$LOADGEN" --port="$PORT" --one "POST /related" \
  --body='{"term": "galaxy", "top_k": 3}' | grep -q '"related"'

# Prometheus exposition with the right content type.
"$LOADGEN" --port="$PORT" --one "GET /metrics" > "$WORKDIR/metrics.out"
grep -q "^HTTP 200" "$WORKDIR/metrics.out"
grep -q "text/plain; version=0.0.4" "$WORKDIR/metrics.out"
grep -q "^# TYPE lsi_serve_requests_2xx counter" "$WORKDIR/metrics.out"
grep -q "^lsi_serve_cache_misses_total" "$WORKDIR/metrics.out"

# Status snapshot is valid JSON mentioning the engine shape.
"$LOADGEN" --port="$PORT" --one "GET /statusz" > "$WORKDIR/statusz.out"
grep -q "^HTTP 200" "$WORKDIR/statusz.out"
grep -q '"documents":45' "$WORKDIR/statusz.out"

# Malformed JSON is a 400, not a dead connection (nonzero loadgen exit).
if "$LOADGEN" --port="$PORT" --one "POST /query" --body='{oops' \
    > "$WORKDIR/bad.out" 2>&1; then
  echo "expected nonzero exit for a 400 response" >&2
  exit 1
fi
grep -q "^HTTP 400" "$WORKDIR/bad.out"

# Unknown route.
if "$LOADGEN" --port="$PORT" --one "GET /nope" > "$WORKDIR/nope.out"; then
  echo "expected nonzero exit for a 404 response" >&2
  exit 1
fi
grep -q "^HTTP 404" "$WORKDIR/nope.out"

# Short closed-loop load: every response accounted for, none errored.
"$LOADGEN" --port="$PORT" --concurrency=4 --duration-ms=1000 \
  > "$WORKDIR/load.json"
if command -v python3 > /dev/null 2>&1; then
  python3 -c '
import json, sys
report = json.load(open(sys.argv[1]))
assert report["errors"] == 0, report
assert report["requests"] > 0, report
assert report["http_2xx"] + report["http_503"] + report["http_other"] \
    == report["requests"], report
' "$WORKDIR/load.json"
else
  grep -q '"errors": 0' "$WORKDIR/load.json"
fi

# Graceful drain under load: SIGTERM while a loadgen is mid-run must
# still exit 0 after finishing in-flight work.
"$LOADGEN" --port="$PORT" --concurrency=2 --duration-ms=2000 \
  > /dev/null 2>&1 &
LOAD_PID=$!
sleep 0.3
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
wait "$LOAD_PID" 2>/dev/null || true
SERVER_PID=""
if [ "$STATUS" -ne 0 ]; then
  echo "server exited $STATUS on SIGTERM:" >&2
  cat "$LOG" >&2
  exit 1
fi
grep -q "drained, exiting" "$LOG"

# A worker thread can trip an LSI_CHECK and abort while the acceptor
# still drains cleanly; the server log must be free of invariant
# failures for the run to count.
if grep -q "LSI_CHECK failed" "$LOG"; then
  echo "LSI_CHECK failure in server log:" >&2
  cat "$LOG" >&2
  exit 1
fi

echo "serve smoke: OK"
