#!/usr/bin/env bash
# Crash-restart smoke: kill -9 the durable server mid-loadgen, restart
# on the same data directory, and verify from outside the process that
# the restored state upholds the durable invariants — account
# conservation (every MULTI/EXEC transfer is all-or-nothing across the
# crash) and TTL semantics (a long-lived probe survives with its
# deadline, an expired one stays dead) — and that a pipelined write is
# on disk when its reply is: 64 SETs sent in one write, the server
# killed on the 64th +OK, every key read back after the restart. One
# phase kills the server as a snapshot starts (BGSAVE looped from a side
# connection under typed load) and audits what an inexact cut would
# break: the lists' FIFO runs and the hash ledger. CI
# runs this after the in-process smokes; see DESIGN.md §Durability for
# why the log's per-key ordering makes the conservation check sound,
# why a snapshot may be cut under writers, and for the ack-ordering
# invariant the last phase probes.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR=127.0.0.1:6404
DATA=$(mktemp -d)
BIN=$(mktemp -d)/stmkv
SERVER_PID=
LOADGEN_PID=

cleanup() {
    [ -n "$LOADGEN_PID" ] && kill "$LOADGEN_PID" 2>/dev/null || true
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$DATA" "$(dirname "$BIN")"
}
trap cleanup EXIT

wait_ready() {
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/6404") 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "crash_smoke: server never came up" >&2
    return 1
}

# pipelined_sets writes 64 inline SETs to the server in one write and
# returns once it has read 64 +OK replies: the caller kills the server
# on the spot.
pipelined_sets() {
    local req="" i line
    for i in $(seq 1 64); do
        req+="SET pipe:$i acked-$i\r\n"
    done
    exec 3<>"/dev/tcp/127.0.0.1/6404"
    printf '%b' "$req" >&3
    for i in $(seq 1 64); do
        IFS= read -r -t 10 line <&3 || { echo "crash_smoke: reply $i of 64 never came" >&2; return 1; }
        if [ "${line%$'\r'}" != "+OK" ]; then
            echo "crash_smoke: pipelined SET $i answered '${line%$'\r'}'" >&2
            return 1
        fi
    done
    exec 3<&- 3>&-
}

# pipelined_gets reads the 64 keys back, again in one write, and fails
# on the first that does not hold what was acknowledged.
pipelined_gets() {
    local req="" i len val
    for i in $(seq 1 64); do
        req+="GET pipe:$i\r\n"
    done
    exec 3<>"/dev/tcp/127.0.0.1/6404"
    printf '%b' "$req" >&3
    for i in $(seq 1 64); do
        IFS= read -r -t 10 len <&3 && IFS= read -r -t 10 val <&3 || val=
        if [ "${val%$'\r'}" != "acked-$i" ]; then
            echo "crash_smoke: pipe:$i was acknowledged, then lost across kill -9 (read back '${len%$'\r'}' '${val%$'\r'}')" >&2
            return 1
        fi
    done
    exec 3<&- 3>&-
}

# bgsave_until sends BGSAVE from its own connection, 20 ms apart, and
# returns on the Nth "Background saving started": that snapshot has just
# begun, and the caller kills the server under it.
bgsave_until() {
    local n=0 line
    exec 4<>"/dev/tcp/127.0.0.1/6404"
    while :; do
        printf 'BGSAVE\r\n' >&4
        IFS= read -r -t 10 line <&4 || { echo "crash_smoke: BGSAVE $((n + 1)) got no reply" >&2; return 1; }
        if [ "${line%$'\r'}" = "+Background saving started" ]; then
            n=$((n + 1))
            [ "$n" -ge "$1" ] && break
        fi
        sleep 0.02
    done
    exec 4<&- 4>&-
}

go build -o "$BIN" ./cmd/stmkv

echo "== phase 1: seed a durable server, plant TTL + typed probes, snapshot =="
"$BIN" -addr "$ADDR" -data "$DATA" &
SERVER_PID=$!
wait_ready
"$BIN" -loadgen -addr "$ADDR" -clients 8 -ops 500 -typed
# Plant probes (TTL pair plus one key per container kind) and cut a
# snapshot so the restart exercises snapshot-load + log-replay, not
# just replay.
"$BIN" -audit set -save -addr "$ADDR"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "== phase 2: restart, then kill -9 mid-loadgen =="
# Scheduled snapshots every 400 logged records: the crash lands with
# the log mid-truncation cycle, so recovery proves snapshot + suffix
# replay under typed traffic, not just a cold log.
"$BIN" -addr "$ADDR" -data "$DATA" -bgsave-every 400ops &
SERVER_PID=$!
wait_ready
# A deliberately oversized run with binary-hostile keys and typed
# containers in the mix: the server dies long before it finishes,
# mid-traffic.
"$BIN" -loadgen -addr "$ADDR" -clients 8 -ops 1000000 -binkeys -typed &
LOADGEN_PID=$!
sleep 3
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
kill "$LOADGEN_PID" 2>/dev/null || true
wait "$LOADGEN_PID" 2>/dev/null || true
LOADGEN_PID=

echo "== phase 3: restart and audit the restored state =="
"$BIN" -addr "$ADDR" -data "$DATA" &
SERVER_PID=$!
wait_ready
"$BIN" -audit check -addr "$ADDR"

echo "== phase 4: typed load, BGSAVE in a loop, kill -9 as the 40th snapshot starts =="
# Snapshots finish under load, so most of the 40 complete and the log
# is a fresh suffix each time; the kill lands in one — chunks half
# written, or rolled forward and not yet renamed, or renamed and not yet
# reaped. Whatever is on disk must recover to lists that are still
# single FIFO runs (a push both in a snapshot and replayed would repeat)
# and a ledger that still sums.
"$BIN" -loadgen -addr "$ADDR" -clients 8 -ops 1000000 -typed &
LOADGEN_PID=$!
sleep 1
bgsave_until 40
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
kill "$LOADGEN_PID" 2>/dev/null || true
wait "$LOADGEN_PID" 2>/dev/null || true
LOADGEN_PID=
"$BIN" -addr "$ADDR" -data "$DATA" &
SERVER_PID=$!
wait_ready
"$BIN" -audit check -addr "$ADDR"

echo "== phase 5: 64 pipelined SETs in one write, kill -9 on the last +OK, read them back =="
# The replies of a pipelined burst are released only as their records
# reach the disk, so the instant the 64th +OK is read all 64 must
# survive a kill.
pipelined_sets
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
"$BIN" -addr "$ADDR" -data "$DATA" &
SERVER_PID=$!
wait_ready
pipelined_gets
kill "$SERVER_PID" 2>/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

echo "crash_smoke: ok"
