#!/bin/sh
# Soak-and-latency gate on the serving layer (DESIGN.md sections 10 and
# 14): drive a large concurrent TCP workload through the serving loop
# twice — with --workers 1, where the loop's one shard is its in-process
# engine, and with the sharded multi-worker front — and require
#   - zero error responses and zero protocol errors over the whole soak,
#   - the consistency cross-check to pass (identical queries answered
#     byte-identically under concurrency, across worker shards too),
#   - a graceful drain: SIGTERM makes the daemon stop accepting, finish
#     in-flight work, reap its workers (if any), and exit 0 (asserted
#     via `wait "$server"` on both legs),
#   - the N-worker configuration to beat the 1-worker baseline by
#     SERVER_SPEEDUP_FLOOR on multi-core machines (auto-relaxed to a
#     sanity floor when nproc < 4 — forked shards can't beat one
#     process on one core).
#
# Latency quantiles and throughput for both legs land in
# $OUT_DIR/server_soak_*.json (uploaded as a CI artifact) and, when
# $GITHUB_STEP_SUMMARY is set, as a markdown table on the run page.
#
# Usage: scripts/check_server.sh
#   (override CONNS/REQUESTS/WORKERS/SESSIONS/SOAK_N/OUT_DIR/
#    SERVER_SPEEDUP_FLOOR)
set -eu

CONNS=${CONNS:-64}
REQUESTS=${REQUESTS:-50000}
WORKERS=${WORKERS:-4}
SESSIONS=${SESSIONS:-8}
SOAK_N=${SOAK_N:-12}
OUT_DIR=${OUT_DIR:-bench/results}

cores=$(nproc 2>/dev/null || echo 1)
if [ -z "${SERVER_SPEEDUP_FLOOR:-}" ]; then
  if [ "$cores" -ge 4 ]; then
    SERVER_SPEEDUP_FLOOR=2.0
  else
    # Too few cores for parallel speedup; only require that sharding
    # doesn't collapse throughput.
    SERVER_SPEEDUP_FLOOR=0.5
  fi
fi

dune build bin/bbc_cli.exe tools/bbc_loadgen.exe

bbc=_build/default/bin/bbc_cli.exe
loadgen=_build/default/tools/bbc_loadgen.exe

tmpdir=$(mktemp -d /tmp/bbc-check-server-XXXXXX)
server=
cleanup() {
  if [ -n "$server" ]; then kill "$server" 2>/dev/null || true; fi
  rm -rf "$tmpdir"
}
trap cleanup EXIT INT TERM
mkdir -p "$OUT_DIR"

# start_server WORKERS: launch `bbc serve --tcp 127.0.0.1:0` and wait
# for the announce line carrying the kernel-resolved port.  Sets
# $server (pid) and $endpoint (HOST:PORT).
start_server() {
  "$bbc" serve --tcp 127.0.0.1:0 --workers "$1" > "$tmpdir/announce.$1" &
  server=$!
  i=0
  while ! grep -q '^listening on tcp:' "$tmpdir/announce.$1" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "check_server: daemon (workers=$1) never announced its port" >&2
      exit 1
    fi
    sleep 0.1
  done
  endpoint=$(sed -n 's/^listening on tcp://p' "$tmpdir/announce.$1" | head -n 1)
}

# stop_server WORKERS: SIGTERM -> graceful drain -> exit 0, checked
# through wait so a crash or a non-zero worker exit fails the gate.
stop_server() {
  kill -TERM "$server"
  if wait "$server"; then
    server=
  else
    echo "check_server: daemon (workers=$1) exited non-zero on SIGTERM" >&2
    exit 1
  fi
}

# check_summary FILE: the loadgen already exits non-zero on protocol
# errors or inconsistency; additionally require the full request count
# and zero error responses (no timeouts/overload at this load).
check_summary() {
  awk -v want="$REQUESTS" '
    {
      if (!match($0, /"requests":[0-9]+/)) { print "check_server: no request count" > "/dev/stderr"; exit 1 }
      requests = substr($0, RSTART + 11, RLENGTH - 11)
      if (requests + 0 != want) { printf "check_server: served %d of %d requests\n", requests, want > "/dev/stderr"; exit 1 }
      if ($0 !~ /"errors":0,/) { print "check_server: error responses present" > "/dev/stderr"; exit 1 }
      if ($0 !~ /"protocol_errors":0,/) { print "check_server: protocol errors present" > "/dev/stderr"; exit 1 }
      if ($0 !~ /"consistent":true/) { print "check_server: inconsistent responses" > "/dev/stderr"; exit 1 }
    }
  ' "$1"
}

# field FILE NAME: pull a numeric field out of the one-line summary.
field() {
  awk -v name="$2" '
    {
      if (match($0, "\"" name "\":[0-9.]+")) {
        print substr($0, RSTART + length(name) + 3, RLENGTH - length(name) - 3)
      }
    }
  ' "$1"
}

run_leg() { # WORKERS OUT
  start_server "$1"
  echo "check_server: soaking $REQUESTS requests ($CONNS conns, $SESSIONS sessions, workers=$1, n=$SOAK_N) on tcp:$endpoint"
  "$loadgen" --tcp "$endpoint" --conns "$CONNS" --total "$REQUESTS" \
    --sessions "$SESSIONS" --name ring --n "$SOAK_N" --json > "$2"
  check_summary "$2"
  stop_server "$1"
}

single_json=$OUT_DIR/server_soak_workers1.json
multi_json=$OUT_DIR/server_soak_workers$WORKERS.json

run_leg 1 "$single_json"
run_leg "$WORKERS" "$multi_json"

single_rps=$(field "$single_json" req_per_s)
multi_rps=$(field "$multi_json" req_per_s)

speedup=$(awk -v a="$multi_rps" -v b="$single_rps" 'BEGIN { printf "%.2f", a / b }')
echo "check_server: workers=1 $single_rps req/s, workers=$WORKERS $multi_rps req/s (speedup ${speedup}x, floor $SERVER_SPEEDUP_FLOOR, $cores cores)"
awk -v s="$speedup" -v floor="$SERVER_SPEEDUP_FLOOR" 'BEGIN {
  if (s + 0 < floor + 0) {
    printf "check_server: sharding speedup %.2fx below floor %.2fx\n", s, floor > "/dev/stderr"
    exit 1
  }
}'

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "### Server soak ($REQUESTS requests, $CONNS connections, $SESSIONS sessions)"
    echo ""
    echo "| workers | req/s | p50 ms | p99 ms |"
    echo "|---:|---:|---:|---:|"
    echo "| 1 | $single_rps | $(field "$single_json" p50_ms) | $(field "$single_json" p99_ms) |"
    echo "| $WORKERS | $multi_rps | $(field "$multi_json" p50_ms) | $(field "$multi_json" p99_ms) |"
    echo ""
    echo "Sharding speedup: ${speedup}x (floor ${SERVER_SPEEDUP_FLOOR}, ${cores} cores)."
  } >> "$GITHUB_STEP_SUMMARY"
fi

echo "check_server: ok ($((2 * REQUESTS)) requests total, 0 errors, consistent, graceful drains)"
