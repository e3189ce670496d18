#!/bin/sh
# Kill-and-restart harness (ctest: dur_kill_restart, label "dur"). The
# acceptance checks that need a real process boundary, run against the
# lamactl binary:
#
#   1. Mutate state over a live `serve --state-dir`, kill -9 the server,
#      restart on the same directory: HEALTH must report the *identical*
#      state_digest with recovered=1 and a clean recovery self-check.
#   2. Damage the journal tail at a byte boundary (a torn final write):
#      the restart still comes up on the last sealed record — torn_tail=1,
#      recovery_ok=1, digest unchanged from the last durable state.
#   3. SIGTERM a serving process: it drains and exits 0, leaving a flushed
#      journal and a shutdown snapshot behind.
#   4. The same as 1 over a 4-shard socket server: define and mutate with
#      one-shot `--connect` calls, each on its own connection (so on any
#      shard), kill -9, and require the stdin restart to recover the digest
#      that the same commands give through one stdin session.
#
# Usage: kill_restart_test.sh <path-to-lamactl> <cluster-file>
set -u

LAMACTL=${1:?usage: kill_restart_test.sh <lamactl> <cluster-file>}
CLUSTER=${2:?usage: kill_restart_test.sh <lamactl> <cluster-file>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/lama-kill-restart-XXXXXX") || exit 1
trap 'rm -rf "$WORK"' EXIT
STATE="$WORK/state"

fail() { echo "FAIL: $*" >&2; exit 1; }

# Extracts "key=value" from the last HEALTH line of a capture file.
health_field() {
  grep 'OK health' "$1" | tail -n 1 | tr ' ' '\n' | sed -n "s/^$2=//p"
}

# Polls until a capture file holds at least $2 HEALTH replies (the server
# flushes per response, so a sealed reply is visible immediately).
await_health() {
  i=0
  while :; do
    n=$(grep -c 'OK health' "$1" 2>/dev/null)
    [ "${n:-0}" -ge "$2" ] && break
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "timed out waiting for HEALTH reply in $1"
    sleep 0.1
  done
}

"$LAMACTL" query --cluster "$CLUSTER" -np 4 --id a --map-by lama:nsch \
  >"$WORK/define.txt" || fail "lamactl query failed"

# --- 1. Mutate, then die without warning ------------------------------------
mkfifo "$WORK/in1"
"$LAMACTL" serve --state-dir "$STATE" \
  <"$WORK/in1" >"$WORK/out1" 2>"$WORK/err1" &
SERVER=$!
exec 3>"$WORK/in1"
cat "$WORK/define.txt" >&3
printf 'OFFLINE a 1\nREMAP a\nHEALTH\n' >&3
await_health "$WORK/out1" 1
kill -9 "$SERVER" 2>/dev/null
wait "$SERVER" 2>/dev/null
exec 3>&-

BEFORE=$(health_field "$WORK/out1" state_digest)
[ -n "$BEFORE" ] || fail "no state_digest in pre-crash HEALTH"
ls "$STATE"/journal-*.wal >/dev/null 2>&1 || fail "no journal on disk"

# --- Restart: the journal alone rebuilds the exact pre-crash state ----------
echo HEALTH | "$LAMACTL" serve --state-dir "$STATE" \
  >"$WORK/out2" 2>"$WORK/err2" || fail "restart after kill -9 exited nonzero"
AFTER=$(health_field "$WORK/out2" state_digest)
[ "$AFTER" = "$BEFORE" ] || \
  fail "digest mismatch after kill -9: $BEFORE -> $AFTER"
[ "$(health_field "$WORK/out2" recovered)" = "1" ] || fail "recovered != 1"
[ "$(health_field "$WORK/out2" recovery_ok)" = "1" ] || \
  fail "recovery self-check failed: $(cat "$WORK/err2")"

# --- 2. Torn tail: garbage after the last sealed record ---------------------
mkfifo "$WORK/in2"
"$LAMACTL" serve --state-dir "$STATE" \
  <"$WORK/in2" >"$WORK/out3" 2>"$WORK/err3" &
SERVER=$!
exec 3>"$WORK/in2"
printf 'OFFLINE a 0 0 1\nHEALTH\n' >&3
await_health "$WORK/out3" 1
kill -9 "$SERVER" 2>/dev/null
wait "$SERVER" 2>/dev/null
exec 3>&-
DURABLE=$(health_field "$WORK/out3" state_digest)

WAL=$(ls "$STATE"/journal-*.wal | sort | tail -n 1)
[ -n "$WAL" ] || fail "no journal to tear"
printf 'torn-by-a-crash-mid-write' >>"$WAL"

echo HEALTH | "$LAMACTL" serve --state-dir "$STATE" \
  >"$WORK/out4" 2>"$WORK/err4" || fail "restart after torn tail refused"
[ "$(health_field "$WORK/out4" torn_tail)" = "1" ] || fail "torn_tail != 1"
[ "$(health_field "$WORK/out4" recovery_ok)" = "1" ] || \
  fail "torn-tail recovery self-check failed: $(cat "$WORK/err4")"
TORN=$(health_field "$WORK/out4" state_digest)
[ "$TORN" = "$DURABLE" ] || \
  fail "torn tail changed the digest: $DURABLE -> $TORN"

# --- 3. SIGTERM: graceful drain, exit 0, snapshot on disk -------------------
SNAPS_BEFORE=$(ls "$STATE"/snapshot-*.snap 2>/dev/null | wc -l)
mkfifo "$WORK/in3"
"$LAMACTL" serve --state-dir "$STATE" \
  <"$WORK/in3" >"$WORK/out5" 2>"$WORK/err5" &
SERVER=$!
exec 3>"$WORK/in3"
printf 'HEALTH\n' >&3
await_health "$WORK/out5" 1
kill -TERM "$SERVER"
wait "$SERVER"
RC=$?
exec 3>&-
[ "$RC" -eq 0 ] || fail "SIGTERM drain exited $RC, want 0"
SNAPS_AFTER=$(ls "$STATE"/snapshot-*.snap 2>/dev/null | wc -l)
[ "$SNAPS_AFTER" -gt 0 ] || fail "no shutdown snapshot after drain"

# The drained state restores cleanly too.
echo HEALTH | "$LAMACTL" serve --state-dir "$STATE" \
  >"$WORK/out6" 2>/dev/null || fail "restart after drain exited nonzero"
[ "$(health_field "$WORK/out6" recovery_ok)" = "1" ] || \
  fail "post-drain recovery self-check failed"
[ "$(health_field "$WORK/out6" state_digest)" = "$DURABLE" ] || \
  fail "drain changed the digest"

# --- 4. Four shards, one journal -------------------------------------------
STATE4="$WORK/state4"
"$LAMACTL" serve --listen tcp:127.0.0.1:0 --shards 4 --state-dir "$STATE4" \
  </dev/null >"$WORK/out7" 2>"$WORK/err7" &
SERVER=$!
i=0
until grep -q 'listening on' "$WORK/err7" 2>/dev/null; do
  kill -0 "$SERVER" 2>/dev/null || \
    fail "4-shard server exited: $(head -n 1 "$WORK/err7")"
  i=$((i + 1))
  [ "$i" -gt 100 ] && fail "4-shard server did not start: $(cat "$WORK/err7")"
  sleep 0.1
done
PORT=$(sed -n 's/.*listening on tcp:[^:]*:\([0-9][0-9]*\).*/\1/p' "$WORK/err7")
[ -n "$PORT" ] || fail "no port in: $(cat "$WORK/err7")"
ADDR="tcp:127.0.0.1:$PORT"
"$LAMACTL" query --cluster "$CLUSTER" -np 4 --id a --map-by lama:nsch \
  --connect "$ADDR" >"$WORK/out8" || fail "query --connect: $(cat "$WORK/out8")"
"$LAMACTL" offline --id a --node 1 --connect "$ADDR" >>"$WORK/out8" || \
  fail "offline --connect: $(cat "$WORK/out8")"
"$LAMACTL" remap --id a --connect "$ADDR" >>"$WORK/out8" || \
  fail "remap --connect: $(cat "$WORK/out8")"
kill -9 "$SERVER" 2>/dev/null
wait "$SERVER" 2>/dev/null

{ cat "$WORK/define.txt"; printf 'OFFLINE a 1\nREMAP a\nHEALTH\n'; } | \
  "$LAMACTL" serve --no-persist >"$WORK/out9" 2>/dev/null || \
  fail "reference stdin session exited nonzero"
WANT=$(health_field "$WORK/out9" state_digest)
[ -n "$WANT" ] || fail "no state_digest from the reference session"
echo HEALTH | "$LAMACTL" serve --state-dir "$STATE4" \
  >"$WORK/out10" 2>"$WORK/err10" || fail "4-shard restart exited nonzero"
[ "$(health_field "$WORK/out10" recovered)" = "1" ] || \
  fail "4-shard restart: recovered != 1"
[ "$(health_field "$WORK/out10" recovery_ok)" = "1" ] || \
  fail "4-shard recovery self-check failed: $(cat "$WORK/err10")"
GOT=$(health_field "$WORK/out10" state_digest)
[ "$GOT" = "$WANT" ] || \
  fail "4-shard digest after kill -9: $GOT, one stdin session gives $WANT"

echo "PASS: kill -9 restart (1 and 4 shards), torn tail, and SIGTERM drain all recovered"
exit 0
