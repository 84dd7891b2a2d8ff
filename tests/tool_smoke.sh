#!/bin/sh
# Smoke test for the lsi_tool CLI: index a corpus, inspect it, query it,
# and ask for similar documents. Arguments: $1 = lsi_tool binary,
# $2 = corpus TSV. Exits nonzero on any failure.
#
# Every invocation's stderr is collected in $ERRLOG; the final guard
# fails the run if any LSI_CHECK invariant fired, even on paths whose
# exit code we deliberately ignore.
set -e

TOOL="$1"
CORPUS="$2"
WORKDIR="$(mktemp -d)"
ENGINE="$WORKDIR/smoke.engine"
ERRLOG="$WORKDIR/stderr.log"
: > "$ERRLOG"
trap 'rm -rf "$WORKDIR"' EXIT

"$TOOL" index "$CORPUS" "$ENGINE" 10 tfidf 2>> "$ERRLOG" \
  | grep -q "indexed 45 documents"

"$TOOL" info "$ENGINE" 2>> "$ERRLOG" | grep -q "documents: 45"

# A topical query must return astro documents on top.
"$TOOL" query "$ENGINE" galaxies and planets 2>> "$ERRLOG" \
  | head -3 | grep -q "astro"

# Similar-documents lookup runs and prints the header.
"$TOOL" similar "$ENGINE" 0 2>> "$ERRLOG" | grep -q "similar to #0"

# Related-terms lookup surfaces latent neighbors.
"$TOOL" related "$ENGINE" galaxy 2>> "$ERRLOG" | grep -q "related to"

# Unknown-term query reports no hits instead of failing.
"$TOOL" query "$ENGINE" zzzqqq 2>> "$ERRLOG" | grep -q "no hits"

# --stats=json appends a metrics dump with solver telemetry and stage
# latency histograms; the JSON starts at the first '{' line. python3
# validates it when available (it is in CI).
"$TOOL" index "$CORPUS" "$ENGINE" 10 tfidf --stats=json \
  > "$ENGINE.stats" 2>> "$ERRLOG"
grep -q "indexed 45 documents" "$ENGINE.stats"
grep -q '"lsi.svd.lanczos.iterations"' "$ENGINE.stats"
for stage in build build.weight build.factor build.project; do
  grep -q "\"lsi.engine.${stage}_ms\": {\"count\": 1," "$ENGINE.stats"
done
if command -v python3 > /dev/null 2>&1; then
  sed -n '/^{/,$p' "$ENGINE.stats" | python3 -m json.tool > /dev/null
fi

# The same counters surface in the Prometheus exposition.
"$TOOL" stats "$ENGINE" galaxies --stats=prom > "$ENGINE.prom" 2>> "$ERRLOG"
for stage in engine_query_latency engine_query_analyze engine_query_weight \
    index_search; do
  grep -q "^lsi_${stage}_ms_count 1\$" "$ENGINE.prom"
done
grep -q '^# TYPE lsi_engine_queries counter$' "$ENGINE.prom"

# LSI_METRICS is the env-var spelling of --stats.
LSI_METRICS=prom "$TOOL" query "$ENGINE" galaxies 2>> "$ERRLOG" \
  | grep -q "^lsi_engine"

# --threads pins the lsi::par scheduler; results are unchanged.
"$TOOL" query "$ENGINE" galaxies and planets --threads=2 2>> "$ERRLOG" \
  | head -3 | grep -q "astro"
if "$TOOL" info "$ENGINE" --threads=banana 2>> "$ERRLOG"; then
  echo "expected failure on bad --threads value" >&2
  exit 1
fi

# An unknown stats format is a usage error.
if "$TOOL" info "$ENGINE" --stats=xml 2>> "$ERRLOG"; then
  echo "expected failure on bad stats format" >&2
  exit 1
fi

# Error paths exit nonzero.
if "$TOOL" query /nonexistent.engine foo 2>> "$ERRLOG"; then
  echo "expected failure on missing engine" >&2
  exit 1
fi
if "$TOOL" frobnicate 2>> "$ERRLOG"; then
  echo "expected usage failure on bad subcommand" >&2
  exit 1
fi

# No invocation above — including the expected-failure ones — may have
# tripped an LSI_CHECK invariant.
if grep -q "LSI_CHECK failed" "$ERRLOG"; then
  echo "LSI_CHECK failure during smoke run:" >&2
  cat "$ERRLOG" >&2
  exit 1
fi

echo "lsi_tool smoke: OK"
