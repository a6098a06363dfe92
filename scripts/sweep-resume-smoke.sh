#!/usr/bin/env bash
# sweep-resume-smoke.sh — end-to-end interrupt/resume gate for ncapsweep.
#
#   1. Run the headline sweep uncached to completion: the golden report.
#   2. Run it again with -cache and SIGINT it once a few jobs have landed
#      in the cache. The graceful drain exits 130 (or 0 if the sweep
#      happened to finish first).
#   3. Rerun the same command over the same -cache. Jobs that completed
#      before the interrupt replay from the cache, the rest run, and the
#      -json report must be byte-identical to the golden one.
#   4. Failure recovery: an E11 sweep whose every job times out exits 1
#      with one FAILED row per job and caches nothing; the same command
#      at the default timeout then runs every job and prints a table
#      byte-identical to an uncached run's. A job runs once per sweep, so
#      a rerun over the cache is how failed rows are retried.
#   5. The removed -checkpoint/-resume flags must be rejected as unknown
#      (exit 2) by all three tools, and the removed -retries by ncapsweep.
#
# Usage: scripts/sweep-resume-smoke.sh [workdir]   (workdir is recreated)
set -euo pipefail

WORK=${1:-sweep-resume-smoke}
rm -rf "$WORK"
mkdir -p "$WORK"
BIN="$WORK/ncapsweep"
go build -o "$WORK/" ./cmd/ncapsweep ./cmd/ncapsim ./cmd/ncaptrace

SWEEP=(-exp headline -jobs 2)
CACHE="$WORK/cache"

PID=""
cleanup() {
  [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
}
trap cleanup EXIT

echo "== golden run (uncached) =="
"$BIN" "${SWEEP[@]}" -q -json "$WORK/golden.json" > "$WORK/golden.txt"

echo "== interrupted run =="
"$BIN" "${SWEEP[@]}" -q -cache "$CACHE" -json "$WORK/partial.json" > "$WORK/partial.txt" 2> "$WORK/partial.err" &
PID=$!
for _ in $(seq 1 500); do
  # Under pipefail, find fails until the sweep has created the cache
  # directory; that counts as no results yet.
  n=$(find "$CACHE" -maxdepth 1 -name '*.json' 2>/dev/null | wc -l) || n=0
  [ "$n" -ge 4 ] && break
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.01
done
kill -INT "$PID" 2>/dev/null || true
status=0
wait "$PID" || status=$?
PID=""
case "$status" in
  130) echo "interrupted with $(find "$CACHE" -maxdepth 1 -name '*.json' | wc -l) cached results" ;;
  0) echo "sweep finished before the interrupt landed; resuming a complete cache" ;;
  *)
    echo "FAIL: interrupted sweep exited $status, want 130 (or 0)" >&2
    exit 1
    ;;
esac

echo "== rerun over the same -cache =="
"$BIN" "${SWEEP[@]}" -cache "$CACHE" -json "$WORK/resumed.json" > "$WORK/resumed.txt" 2> "$WORK/resumed.err"
tail -n 1 "$WORK/resumed.err"
if ! grep -Eq ', [1-9][0-9]* cached' "$WORK/resumed.err"; then
  echo "FAIL: the rerun replayed nothing from the cache" >&2
  exit 1
fi
cmp "$WORK/golden.json" "$WORK/resumed.json"
cmp "$WORK/golden.txt" "$WORK/resumed.txt"

echo "== failed jobs rerun over the same -cache =="
E11=(-exp e11 -workload apache -jobs 2 -q)
E11CACHE="$WORK/e11-cache"
status=0
"$BIN" "${E11[@]}" -timeout 1ms -cache "$E11CACHE" > "$WORK/e11-failed.txt" || status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: timed-out E11 sweep exited $status, want 1" >&2
  exit 1
fi
failed=$(grep -c 'FAILED: ' "$WORK/e11-failed.txt" || true)
if [ "$failed" -ne 21 ]; then
  echo "FAIL: timed-out E11 sweep printed $failed FAILED rows, want 21" >&2
  exit 1
fi
cached=$(find "$E11CACHE" -maxdepth 1 -name '*.json' 2>/dev/null | wc -l) || cached=0
if [ "$cached" -ne 0 ]; then
  echo "FAIL: failed jobs left $cached cache entries" >&2
  exit 1
fi
"$BIN" "${E11[@]}" -cache "$E11CACHE" > "$WORK/e11-rerun.txt"
"$BIN" "${E11[@]}" > "$WORK/e11-uncached.txt"
cmp "$WORK/e11-uncached.txt" "$WORK/e11-rerun.txt"

echo "== removed flags =="
for tool in ncapsweep ncapsim ncaptrace; do
  for flag in -checkpoint -resume; do
    status=0
    "$WORK/$tool" "$flag" "$WORK/x" > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
      echo "FAIL: $tool $flag exited $status, want 2" >&2
      exit 1
    fi
  done
done
status=0
"$BIN" -retries 1 > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
  echo "FAIL: ncapsweep -retries exited $status, want 2" >&2
  exit 1
fi

echo "OK: resumed report is byte-identical to the uninterrupted run ($(wc -c < "$WORK/golden.json") bytes)"
