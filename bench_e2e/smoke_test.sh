#!/bin/sh
# Harness smoke for bench_e2e: runs every workload at --smoke scale,
# untraced and traced, twice, and checks that each run passes its answer
# and validity checks and that halk_bench_diff accepts the two result sets.
#
#   smoke_test.sh <bench_e2e> <halk_bench_diff> <scratch dir>
set -eu
bench="$1"
diff="$2"
dir="$3"
rm -rf "$dir"
mkdir -p "$dir/a" "$dir/b" "$dir/work"

for side in a b; do
  for w in cold_scan store_sharded shared_subtrees hot_cache; do
    HALK_BENCH_OUTPUT_DIR="$dir/$side" "$bench" --smoke --workload "$w" \
      --seed 3 --seconds 0.2 --workdir "$dir/work" > "$dir/$side/$w.out"
    tail -n 1 "$dir/$side/$w.out" | grep -q '"correct":true'
  done
done
for w in cold_scan store_sharded shared_subtrees hot_cache; do
  "$bench" --smoke --workload "$w" --seed 5 --seconds 0.2 \
    --workdir "$dir/work" --trace "$dir/trace_$w.json" > "$dir/trace_$w.out"
  tail -n 1 "$dir/trace_$w.out" | grep -q '"obs.trace_overhead"'
  tail -n 1 "$dir/trace_$w.out" | grep -q '"correct":true'
  grep -q '"traceEvents"' "$dir/trace_$w.json"
  # Smoke runs are too short for a tight gate; this checks the BenchJson
  # schema round-trips through halk_bench_diff.
  "$diff" "$dir/a/BENCH_e2e_$w.json" "$dir/b/BENCH_e2e_$w.json" \
    --tolerance 0.95
done
echo "bench_e2e smoke: ok"
