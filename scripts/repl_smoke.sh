#!/usr/bin/env bash
# Replication smoke test: a durable primary streams its WAL to a read-only
# replica, the primary is kill -9'd mid-ingest, the replica is promoted via
# the `pskyline -promote` client, the rest of the stream is pushed to the
# promoted node over HTTP, and its final skyline is byte-compared against an
# uninterrupted single-process oracle. Run from the repo root
# (`make repl-smoke`).
set -euo pipefail

GO=${GO:-go}
N=${N:-6000}
CUT=${CUT:-4000}
WINDOW=${WINDOW:-1000}
tmp=$(mktemp -d)
ppid=
rpid=
opid=
trap 'exec 9>&- 2>/dev/null || true
      kill -9 "$ppid" "$rpid" "$opid" 2>/dev/null || true
      rm -rf "$tmp"' EXIT

"$GO" build -o "$tmp/pskyline" ./cmd/pskyline
"$GO" run ./cmd/datagen -dims 2 -n "$N" -seed 11 > "$tmp/stream.csv"

# poll CMD... : retry a command for up to 30s.
poll() {
    for _ in $(seq 1 300); do
        "$@" 2>/dev/null && return 0
        sleep 0.1
    done
    return 1
}

# addr_of FILE MARKER: extract the http://host:port a process announced.
addr_of() {
    grep -o "$2 http://[0-9.:]*" "$1" | head -n1 | awk '{print $NF}'
}

# fetch_has URL PATTERN: GET URL into memory, then grep the body. The body is
# read in full before grep sees it: piping curl into a grep -q (or an awk
# that exits early) would let curl fail with "(23) Failed writing body"
# under pipefail whenever the reader quits first.
fetch_has() {
    local body
    body=$(curl -fsS "$1") || return 1
    grep -q "$2" <<<"$body"
}

# Uninterrupted oracle: one process, no faults, no failover. -http keeps it
# alive after EOF so its skyline can be fetched over the same JSON surface
# the promoted replica serves.
"$tmp/pskyline" -dims 2 -window "$WINDOW" -q 0.3 -summary \
    -http 127.0.0.1:0 \
    < "$tmp/stream.csv" > "$tmp/oracle.log" 2> "$tmp/oracle.err" &
opid=$!
poll grep -q "serving on http://" "$tmp/oracle.err" \
    || { echo "oracle never served"; cat "$tmp/oracle.err"; exit 1; }
ORACLE=$(addr_of "$tmp/oracle.err" "serving on")
oracle_done() {
    fetch_has "$ORACLE/skyline" "\"processed\":$N"
}
poll oracle_done \
    || { echo "oracle never ingested $N elements"; exit 1; }
curl -fsS "$ORACLE/skyline" > "$tmp/oracle.json"
kill "$opid" && wait "$opid" 2>/dev/null || true
opid=

# Primary: durable, replicating, fed through a FIFO held open by this script
# so it is still mid-ingest when the kill lands.
mkfifo "$tmp/pipe"
"$tmp/pskyline" -dims 2 -window "$WINDOW" -q 0.3 -snapshot "$CUT" \
    -wal "$tmp/wal-p" -wal-fsync always \
    -replicate-listen 127.0.0.1:0 \
    < "$tmp/pipe" > "$tmp/primary.log" 2> "$tmp/primary.err" &
ppid=$!
exec 9> "$tmp/pipe"
poll grep -q "replicating on" "$tmp/primary.err" \
    || { echo "primary never announced its replication listener"; cat "$tmp/primary.err"; exit 1; }
REPL=$(grep -o "replicating on [0-9.:]*" "$tmp/primary.err" | head -n1 | awk '{print $NF}')

# Replica: follows the primary into its own WAL directory, serves HTTP.
"$tmp/pskyline" -dims 2 -window "$WINDOW" -q 0.3 \
    -replica-of "$REPL" -wal "$tmp/wal-r" -http 127.0.0.1:0 \
    > "$tmp/replica.log" 2> "$tmp/replica.err" &
rpid=$!
poll grep -q "serving on http://" "$tmp/replica.err" \
    || { echo "replica never served"; cat "$tmp/replica.err"; exit 1; }
RHTTP=$(addr_of "$tmp/replica.err" "serving on")

# Feed the first $CUT elements, wait for the primary to apply them, then for
# the replica to report it has caught up to the same position.
head -n "$CUT" "$tmp/stream.csv" >&9
poll grep -q "^@$CUT skyline" "$tmp/primary.log" \
    || { echo "primary never reached element $CUT"; cat "$tmp/primary.err"; exit 1; }
caught_up() {
    fetch_has "$RHTTP/healthz" "\"processed\":$CUT.*\"role\":\"replica\""
}
poll caught_up \
    || { echo "replica never caught up to $CUT"; curl -fsS "$RHTTP/healthz" || true; cat "$tmp/replica.err"; exit 1; }

# The primary dies hard, mid-ingest.
kill -9 "$ppid"
wait "$ppid" 2>/dev/null || true
ppid=
exec 9>&-

# Promote the replica through the CLI client; it must flip to a writable
# primary with a bumped fencing epoch.
"$tmp/pskyline" -promote "$RHTTP" > "$tmp/promote.out"
grep -q "role=primary epoch=1" "$tmp/promote.out" \
    || { echo "unexpected promote ack:"; cat "$tmp/promote.out"; exit 1; }
fetch_has "$RHTTP/healthz" "\"role\":\"primary\"" \
    || { echo "promoted node still reports itself a replica"; exit 1; }

# Push the rest of the stream to the promoted node over HTTP (drained so the
# skyline below is fully visible), then byte-compare against the oracle.
tail -n +"$((CUT + 1))" "$tmp/stream.csv" \
    | awk -F, '{printf "{\"point\":[%s,%s],\"prob\":%s,\"ts\":%s}\n",$1,$2,$3,$4}' \
    | curl -fsS -X POST --data-binary @- "$RHTTP/push?drain=1" > "$tmp/push.out"
grep -q "\"accepted\":$((N - CUT))" "$tmp/push.out" \
    || { echo "promoted node rejected the tail:"; cat "$tmp/push.out"; exit 1; }
curl -fsS "$RHTTP/skyline" > "$tmp/promoted.json"
if ! cmp -s "$tmp/oracle.json" "$tmp/promoted.json"; then
    echo "SKYLINE DIVERGED after failover:"
    diff <(tr ',' '\n' < "$tmp/oracle.json") <(tr ',' '\n' < "$tmp/promoted.json") | head -20
    exit 1
fi

# Clean shutdown of the promoted node must install a final checkpoint in the
# replica's WAL directory, like any primary.
kill "$rpid"
wait "$rpid" 2>/dev/null || true
rpid=
grep -q "checkpoint installed" "$tmp/replica.err" \
    || { echo "promoted node did not checkpoint at exit"; cat "$tmp/replica.err"; exit 1; }

echo "repl smoke OK: primary killed at $CUT/$N, replica promoted (epoch 1) and the failover skyline matches the uninterrupted oracle"
