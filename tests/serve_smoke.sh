#!/usr/bin/env bash
#===--- tests/serve_smoke.sh - End-to-end daemon smoke test --------------===//
#
# Part of the ptran-times project (Sarkar, PLDI 1989 reproduction).
#
# Starts ptran-serve on a scratch Unix socket with --session-jobs=4,
# checks that churning 500 short connections leaves its address space and
# its thread count bounded (loaded sessions hold no workers), drives a short
# burst of mixed estimate/ingest traffic through ptran-bench-client,
# scrapes the stats table, asks the daemon to shut down, and checks that
# both sides exit cleanly. Usage:
#
#   serve_smoke.sh <ptran-serve> <ptran-bench-client> <work-dir>
#
#===----------------------------------------------------------------------===//

set -u

SERVE=$1
CLIENT=$2
WORK=$3

mkdir -p "$WORK"
# Unix socket paths are capped at ~107 bytes; build trees can be deep, so
# fall back to /tmp when the work dir would not fit.
SOCK="$WORK/serve.sock"
if [ ${#SOCK} -ge 100 ]; then
  SOCK=$(mktemp -u /tmp/ptran-serve-XXXXXX.sock)
fi
LOG="$WORK/serve.log"
OUT="$WORK/client.log"
rm -f "$SOCK"

"$SERVE" --socket="$SOCK" --queue-limit=64 --session-jobs=4 >"$LOG" 2>&1 &
SERVE_PID=$!

# Wait for the listener (the daemon unlinks any stale socket first, so the
# path existing means bind+listen succeeded).
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  if ! kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "serve_smoke: daemon died during startup" >&2
    cat "$LOG" >&2
    exit 1
  fi
  sleep 0.1
done
if [ ! -S "$SOCK" ]; then
  echo "serve_smoke: daemon never bound $SOCK" >&2
  cat "$LOG" >&2
  kill "$SERVE_PID" 2>/dev/null
  exit 1
fi

# Connection churn must not grow the daemon's address space: a closed
# connection's thread is joined, which releases its stack mapping. The
# first churn brings the allocator's per-thread arenas to their steady
# size, so only the second is measured; the probe after each churn opens
# one more connection, at whose accept the churn's threads are joined.
CHURN_LOG="$WORK/churn.log"
churn() {
  "$CLIENT" --socket="$SOCK" --connections=500 --requests=1 --sessions=2 \
    >>"$CHURN_LOG" 2>&1 &&
    "$CLIENT" --socket="$SOCK" --probe=bench-0 >>"$CHURN_LOG" 2>&1
}
vm_size_kb() { awk '/^VmSize:/ { print $2 }' "/proc/$SERVE_PID/status"; }
threads() { awk '/^Threads:/ { print $2 }' "/proc/$SERVE_PID/status"; }
CHURN_RC=0
: >"$CHURN_LOG"
THREADS_BEFORE=$(threads)
churn || CHURN_RC=1
VM_BEFORE=$(vm_size_kb)
churn || CHURN_RC=1
VM_AFTER=$(vm_size_kb)
THREADS_AFTER=$(threads)

"$CLIENT" --socket="$SOCK" --connections=16 --requests=10 --sessions=2 \
  --scrape-stats --shutdown >"$OUT" 2>&1
CLIENT_RC=$?

wait "$SERVE_PID"
SERVE_RC=$?

cat "$OUT"
RC=0
if [ "$CLIENT_RC" -ne 0 ]; then
  echo "serve_smoke: bench client failed (rc=$CLIENT_RC)" >&2
  RC=1
fi
if [ "$SERVE_RC" -ne 0 ]; then
  echo "serve_smoke: daemon exited with rc=$SERVE_RC" >&2
  cat "$LOG" >&2
  RC=1
fi
if [ "$CHURN_RC" -ne 0 ]; then
  echo "serve_smoke: connection churn failed" >&2
  cat "$CHURN_LOG" >&2
  RC=1
fi
GROWTH_KB=$((VM_AFTER - VM_BEFORE))
echo "serve_smoke: VmSize ${VM_BEFORE} kB -> ${VM_AFTER} kB over 500 connections"
if [ "$GROWTH_KB" -ge $((64 * 1024)) ]; then
  echo "serve_smoke: VmSize grew by ${GROWTH_KB} kB over 500 closed" \
    "connections (limit 64 MB): connection threads are not reaped" >&2
  RC=1
fi
# The churn loads two sessions; their analysis workers must be gone once
# each load returns. The slack of 2 covers the last probe's connection
# thread, which is joined only at the next accept.
THREAD_GROWTH=$((THREADS_AFTER - THREADS_BEFORE))
echo "serve_smoke: Threads ${THREADS_BEFORE} -> ${THREADS_AFTER} over two churns"
if [ "$THREAD_GROWTH" -gt 2 ]; then
  echo "serve_smoke: the daemon gained ${THREAD_GROWTH} threads (limit 2):" \
    "loaded sessions keep worker threads" >&2
  RC=1
fi
# The scraped stats table must show the dispatcher's own counters.
for COUNTER in serve.requests serve.estimates serve.ingests serve.loads; do
  if ! grep -q "$COUNTER" "$OUT"; then
    echo "serve_smoke: stats table is missing $COUNTER" >&2
    RC=1
  fi
done
# The daemon must have removed its socket on the way out.
if [ -e "$SOCK" ]; then
  echo "serve_smoke: socket file left behind after shutdown" >&2
  RC=1
fi
exit $RC
