#!/usr/bin/env bash
# Semi-sync replication smoke test: a durable primary replicates to one
# follower with -repl-semisync-k 1, while a -repl-fault schedule delays
# every replication write past -repl-ack-wait — a deterministic slow-link
# partition. The drill asserts the full degradation cycle from the outside,
# through /metrics:
#
#   1. the stream upgrades to semisync once the follower catches up,
#   2. a push under the partition times out its quorum wait and degrades
#      the stream without stalling ingestion,
#   3. the delayed acks still land, so the stream re-upgrades on its own,
#   4. after a kill -9 of the primary, the promoted follower holds at least
#      every quorum-acked record (scraped right before the kill) — the loss
#      bound is the un-acked suffix only,
#   5. feeding the promoted node the tail it missed reproduces, byte for
#      byte, the skyline of an uninterrupted single-process oracle.
#
# Run from the repo root (`make semisync-smoke`).
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

# poll CMD... : retry a command for up to 60s (delayed replication writes
# make convergence slower than in the plain repl smoke).
poll() {
    for _ in $(seq 1 600); do
        "$@" 2>/dev/null && return 0
        sleep 0.1
    done
    return 1
}

# addr_of FILE MARKER: extract the http://host:port a process announced.
addr_of() {
    grep -o "$2 http://[0-9.:]*" "$1" | head -n1 | awk '{print $NF}'
}

# metric NAME: scrape one gauge/counter value from the primary's /metrics.
metric() {
    local body
    body=$(curl -fsS "$PHTTP/metrics") || return 1
    awk -v m="$1" '$1 == m {print $2; exit}' <<<"$body"
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

# Uninterrupted oracle: one process, no replication, no faults.
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

# Primary: durable, semi-sync (k=1), fed through a FIFO held open by this
# script. The fault schedule delays every replication write by 600ms —
# twice -repl-ack-wait — so any push made while the stream is semisync must
# time out its quorum wait and degrade; the delayed frame still lands and
# its ack re-upgrades the stream.
mkfifo "$tmp/pipe"
"$tmp/pskyline" -dims 2 -window "$WINDOW" -q 0.3 -summary -batch 64 \
    -wal "$tmp/wal-p" -wal-fsync always \
    -replicate-listen 127.0.0.1:0 -http 127.0.0.1:0 \
    -repl-semisync-k 1 -repl-ack-wait 300ms \
    -repl-fault "write:times=-1:delay=600ms" -repl-fault-seed 7 \
    < "$tmp/pipe" > "$tmp/primary.log" 2> "$tmp/primary.err" &
ppid=$!
exec 9> "$tmp/pipe"
poll grep -q "replicating on" "$tmp/primary.err" \
    || { echo "primary never announced its replication listener"; cat "$tmp/primary.err"; exit 1; }
grep -q "semi-sync k=1" "$tmp/primary.err" \
    || { echo "primary did not announce semi-sync mode"; cat "$tmp/primary.err"; exit 1; }
REPL=$(grep -o "replicating on [0-9.:]*" "$tmp/primary.err" | head -n1 | awk '{print $NF}')
poll grep -q "serving on http://" "$tmp/primary.err" \
    || { echo "primary never served HTTP"; cat "$tmp/primary.err"; exit 1; }
PHTTP=$(addr_of "$tmp/primary.err" "serving on")

# Replica: follows the primary into its own WAL directory, serves HTTP.
"$tmp/pskyline" -dims 2 -window "$WINDOW" -q 0.3 \
    -replica-of "$REPL" -wal "$tmp/wal-r" -http 127.0.0.1:0 \
    > "$tmp/replica.log" 2> "$tmp/replica.err" &
rpid=$!
poll grep -q "serving on http://" "$tmp/replica.err" \
    || { echo "replica never served"; cat "$tmp/replica.err"; exit 1; }
RHTTP=$(addr_of "$tmp/replica.err" "serving on")

# Phase 1: feed a prefix and wait for the upgrade to semisync — the
# follower catches up over the slow link and its (delayed) acks flip the
# state machine on.
PREFIX=500
head -n "$PREFIX" "$tmp/stream.csv" >&9
in_semisync() { [ "$(metric pskyline_repl_sync_state)" -eq 2 ]; }
poll in_semisync \
    || { echo "stream never upgraded to semisync:"
         curl -fsS "$PHTTP/metrics" | grep pskyline_repl_ || true
         cat "$tmp/primary.err"; exit 1; }

# Phase 2: feed the rest while the stream is semisync. The next quorum wait
# must time out (the frame write is delayed past -repl-ack-wait) and degrade
# the stream — without stalling ingestion — and the delayed acks must then
# re-upgrade it. Require the whole cycle in the counters: at least one
# timeout-degradation, a re-upgrade on top of the initial one, semisync as
# the settled state, and a quorum watermark that advanced.
sed -n "$((PREFIX + 1)),${CUT}p" "$tmp/stream.csv" >&9
cycle_done() {
    [ "$(metric pskyline_repl_semisync_wait_timeouts_total)" -ge 1 ] &&
    [ "$(metric pskyline_repl_semisync_degrades_total)" -ge 1 ] &&
    [ "$(metric pskyline_repl_semisync_upgrades_total)" -ge 2 ] &&
    [ "$(metric pskyline_repl_sync_state)" -eq 2 ] &&
    [ "$(metric pskyline_repl_quorum_acked_seq)" -gt 0 ]
}
poll cycle_done \
    || { echo "degrade/heal/upgrade cycle never completed:"
         curl -fsS "$PHTTP/metrics" | grep pskyline_repl_ || true
         cat "$tmp/primary.err"; exit 1; }
fetch_has "$PHTTP/healthz" "\"sync_state\":\"semisync\"" \
    || { echo "/healthz does not surface the semi-sync state"; curl -fsS "$PHTTP/healthz"; exit 1; }

# The loss bound: scrape the quorum-acked watermark, then kill the primary
# hard. Whatever the primary acked must survive the failover.
ACKED=$(metric pskyline_repl_quorum_acked_seq)
kill -9 "$ppid"
wait "$ppid" 2>/dev/null || true
ppid=
exec 9>&-

"$tmp/pskyline" -promote "$RHTTP" > "$tmp/promote.out"
grep -q "role=primary epoch=1" "$tmp/promote.out" \
    || { echo "unexpected promote ack:"; cat "$tmp/promote.out"; exit 1; }
P=$(grep -o "seq=[0-9]*" "$tmp/promote.out" | head -n1 | cut -d= -f2)
[ "$P" -ge "$ACKED" ] \
    || { echo "ACKED RECORD LOST: promoted at seq $P < quorum-acked $ACKED"; exit 1; }
[ "$P" -le "$CUT" ] \
    || { echo "promoted seq $P exceeds the $CUT elements ever fed"; exit 1; }

# Feed the promoted node exactly the tail it is missing, then byte-compare
# its skyline against the uninterrupted oracle.
tail -n +"$((P + 1))" "$tmp/stream.csv" \
    | awk -F, '{printf "{\"point\":[%s,%s],\"prob\":%s,\"ts\":%s}\n",$1,$2,$3,$4}' \
    | curl -fsS -X POST --data-binary @- "$RHTTP/push?drain=1" > "$tmp/push.out"
grep -q "\"accepted\":$((N - P))" "$tmp/push.out" \
    || { echo "promoted node rejected the tail:"; cat "$tmp/push.out"; exit 1; }
curl -fsS "$RHTTP/skyline" > "$tmp/promoted.json"
if ! cmp -s "$tmp/oracle.json" "$tmp/promoted.json"; then
    echo "SKYLINE DIVERGED after semi-sync failover:"
    diff <(tr ',' '\n' < "$tmp/oracle.json") <(tr ',' '\n' < "$tmp/promoted.json") | head -20
    exit 1
fi

kill "$rpid"
wait "$rpid" 2>/dev/null || true
rpid=
grep -q "checkpoint installed" "$tmp/replica.err" \
    || { echo "promoted node did not checkpoint at exit"; cat "$tmp/replica.err"; exit 1; }

echo "semisync smoke OK: degraded under the injected write latency and re-upgraded, primary killed at seq $P (quorum-acked $ACKED preserved), failover skyline matches the oracle"
