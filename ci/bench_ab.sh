#!/bin/sh
# Gates a change against its merge base on one host: runs the guarded
# rows of two bench_s1_substrate_perf builds in 10 alternating pairs,
# then calls `bench_guard.py ab` on the runs. Pair i runs base first
# when i is odd and head first when it is even, so a host that drifts
# during the job weighs on both sides alike. The deadlock detector is
# off on both sides, so the QueryCache hit row holds the detector-off
# cost of the Mutex a repeated query takes to the base. The A^T x
# scatter (BM_SparseMatVecTranspose) and the Lanczos tridiagonal
# eigensolve (BM_TridiagonalEigen) are the SVD build's per-element
# loops; their rows hold an accessor that stops inlining to the base.
#
# Arguments: $1 = base bench_s1_substrate_perf binary, $2 = head binary,
# $3 = output directory (gets base/NN.json and head/NN.json). Exits
# nonzero when the gate fails.
set -e

BASE="$1"
HEAD="$2"
OUT="$3"
ROWS='(BM_SparseMatVecThreads|BM_SparseMatVecTranspose|BM_TridiagonalEigen|BM_GramApplyThreads|BM_DenseGemmThreads|BM_CosineScoreThreads|BM_SimdDot|BM_SpmvPath|BM_GemmPath|BM_QueryCacheHit)'
unset LSI_DEADLOCK_DETECT

# Runs binary $1 into JSON file $2. Each row keeps its best of 5
# repetitions, and interleaving spreads those over the whole run, so a
# burst of contention from another process rarely slows all 5.
run() {
  "$1" --benchmark_filter="$ROWS" --benchmark_min_time=0.1 \
    --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
    --benchmark_format=json > "$2"
}

mkdir -p "$OUT/base" "$OUT/head"
for i in 1 2 3 4 5 6 7 8 9 10; do
  name="$(printf '%02d.json' "$i")"
  if [ $((i % 2)) -eq 1 ]; then
    run "$BASE" "$OUT/base/$name"
    run "$HEAD" "$OUT/head/$name"
  else
    run "$HEAD" "$OUT/head/$name"
    run "$BASE" "$OUT/base/$name"
  fi
done
python3 "$(dirname "$0")/bench_guard.py" ab "$OUT/base" "$OUT/head"
