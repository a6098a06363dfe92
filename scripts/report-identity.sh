#!/usr/bin/env bash
# report-identity.sh — byte-identity check of ncapsweep and ncaptrace
# output against a base revision.
#
#   1. Export <base-ref> into a temporary directory and build ncapsweep
#      and ncaptrace there; build both from the working tree.
#   2. Run `ncapsweep -exp <exp> -jobs 2 -q -json` with both binaries.
#   3. cmp the stdout tables and the -json reports.
#   4. Run three ncaptrace commands (the Fig. 4 trace, the memcached
#      snapshot pair, and ncap.sw on a lossy 2-rack fleet) with both
#      binaries and cmp every CSV.
#
# A refactor that claims to keep behaviour must pass this against its
# parent. It is not a CI gate: a legitimate model change moves the numbers.
#
# Usage: scripts/report-identity.sh <base-ref> [exp]   (exp defaults to all)
# Run from the repository root.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <base-ref> [exp]" >&2
  exit 2
fi
BASE=$1
EXP=${2:-all}
REV=$(git rev-parse --verify "$BASE^{commit}")

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# git archive exports the committed tree without registering a worktree,
# so an interrupted run leaves nothing behind in .git.
mkdir "$WORK/base"
git archive "$REV" | tar -x -C "$WORK/base"
for tool in ncapsweep ncaptrace; do
  go -C "$WORK/base" build -o "$WORK/$tool-base" ./cmd/$tool
  go build -o "$WORK/$tool-head" ./cmd/$tool
done

for side in base head; do
  echo "== $side: ncapsweep -exp $EXP =="
  "$WORK/ncapsweep-$side" -exp "$EXP" -jobs 2 -q -json "$WORK/$side.json" > "$WORK/$side.txt"
done

cmp "$WORK/base.txt" "$WORK/head.txt"
cmp "$WORK/base.json" "$WORK/head.json"
echo "OK: -exp $EXP tables ($(wc -c < "$WORK/head.txt") bytes) and report ($(wc -c < "$WORK/head.json") bytes) match $BASE ($(git rev-parse --short "$REV"))"

for side in base head; do
  echo "== $side: ncaptrace =="
  mkdir "$WORK/trace-$side"
  "$WORK/ncaptrace-$side" -policy ond.idle -workload apache -level low \
    > "$WORK/trace-$side/fig4.csv" 2>/dev/null
  "$WORK/ncaptrace-$side" -snapshot -workload memcached -level low \
    -out "$WORK/trace-$side/snap" 2>/dev/null
  "$WORK/ncaptrace-$side" -policy ncap.sw -workload memcached \
    -racks 2 -rack-servers 2 -rack-clients 2 -loss 0.01 \
    > "$WORK/trace-$side/fleet-loss.csv" 2>/dev/null
done
for f in fig4.csv snap_ond.idle.csv snap_ncap.cons.csv fleet-loss.csv; do
  cmp "$WORK/trace-base/$f" "$WORK/trace-head/$f"
done
echo "OK: ncaptrace CSVs match $BASE"
