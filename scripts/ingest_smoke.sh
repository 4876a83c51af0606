#!/usr/bin/env bash
# Ingestion benchmark smoke: runs the short -ingest harness once, so every
# path it drives (engine push, looped Monitor.Push, PushBatch, sharded push,
# the merged sharded read, WAL push, replicated push, expiry, mixed, recovery
# reopen) is exercised end to end, and fails unless every row is printed. The run goes
# to a temporary trajectory file — BENCH_ingest.json is never written — and
# no timing is gated on. Run from the repo root (`make ingest-smoke`).
set -euo pipefail

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

before=$(cksum BENCH_ingest.json 2>/dev/null || true)
"$GO" run ./cmd/pskybench -ingest -ingest-short -label ci-ingest \
    -out "$tmp/ingest.json" | tee "$tmp/ingest.log"

rows=(
    "push/d=2/q=0.3" "push/d=3/q=0.3" "push/d=5/q=0.3"
    "push/d=3/nometrics" "push/d=3/blockoff" "push/d=3/q=0.7" "push/d=3/k=3"
    "looped-push/d=3" "pushbatch/d=3/B=512"
    "shardpush/d=3/shards=1/B=512" "shardpush/d=3/shards=4/B=512"
    "mergeview/d=3/shards=2" "mergeview/d=5/shards=2"
    "walpush/d=3/fsync=never" "walpush/d=3/fsync=interval"
    "replpush/d=3/async" "replpush/d=3/semisync-k1"
    "expire/d=3" "mixed/d=3"
    "recover/d=5/w=[0-9]*/serial" "recover/d=5/w=[0-9]*/fast"
)
for row in "${rows[@]}"; do
    # A row that ran reports a positive ns/op; a benchmark that failed
    # reports none.
    grep -Eq "^ +${row} +[1-9][0-9]* ns/op" "$tmp/ingest.log" \
        || { echo "ingest smoke: row $row missing or empty"; exit 1; }
done
grep -q '"label": *"ci-ingest"' "$tmp/ingest.json" \
    || { echo "ingest smoke: run not written to the temporary trajectory file"; exit 1; }
[ "$(cksum BENCH_ingest.json 2>/dev/null || true)" = "$before" ] \
    || { echo "ingest smoke: BENCH_ingest.json was modified"; exit 1; }

echo "ingest smoke OK (${#rows[@]} rows)"
