#!/bin/sh
# Soak-and-latency gate on the serving layer (DESIGN.md sections 10 and
# 14): drive a large concurrent TCP workload through one `bbc serve`
# daemon and require
#   - the full request count, zero error responses and zero protocol
#     errors over the whole soak,
#   - the consistency cross-check to pass (identical queries answered
#     byte-identically under concurrency),
#   - a graceful drain: SIGTERM makes the daemon stop accepting, finish
#     in-flight work and exit 0 (asserted via `wait "$server"`).
#
# Latency quantiles and throughput land in $OUT_DIR/server_soak.json
# (uploaded as a CI artifact) and, when $GITHUB_STEP_SUMMARY is set, as
# a markdown table on the run page.
#
# Usage: scripts/check_server.sh
#   (override CONNS/REQUESTS/SESSIONS/SOAK_N/OUT_DIR)
set -eu

CONNS=${CONNS:-64}
REQUESTS=${REQUESTS:-50000}
SESSIONS=${SESSIONS:-8}
SOAK_N=${SOAK_N:-12}
OUT_DIR=${OUT_DIR:-bench/results}

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

# Launch `bbc serve --tcp 127.0.0.1:0` and wait for the announce line
# carrying the kernel-resolved port.
"$bbc" serve --tcp 127.0.0.1:0 > "$tmpdir/announce" &
server=$!
i=0
while ! grep -q '^listening on tcp:' "$tmpdir/announce" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "check_server: daemon never announced its port" >&2
    exit 1
  fi
  sleep 0.1
done
endpoint=$(sed -n 's/^listening on tcp://p' "$tmpdir/announce" | head -n 1)

soak_json=$OUT_DIR/server_soak.json
echo "check_server: soaking $REQUESTS requests ($CONNS conns, $SESSIONS sessions, n=$SOAK_N) on tcp:$endpoint"
"$loadgen" --tcp "$endpoint" --conns "$CONNS" --total "$REQUESTS" \
  --sessions "$SESSIONS" --name ring --n "$SOAK_N" --json > "$soak_json"

# The loadgen already exits non-zero on protocol errors or
# inconsistency; additionally require the full request count and zero
# error responses (no timeouts/overload at this load).
awk -v want="$REQUESTS" '
  {
    if (!match($0, /"requests":[0-9]+/)) { print "check_server: no request count" > "/dev/stderr"; exit 1 }
    requests = substr($0, RSTART + 11, RLENGTH - 11)
    if (requests + 0 != want) { printf "check_server: served %d of %d requests\n", requests, want > "/dev/stderr"; exit 1 }
    if ($0 !~ /"errors":0,/) { print "check_server: error responses present" > "/dev/stderr"; exit 1 }
    if ($0 !~ /"protocol_errors":0,/) { print "check_server: protocol errors present" > "/dev/stderr"; exit 1 }
    if ($0 !~ /"consistent":true/) { print "check_server: inconsistent responses" > "/dev/stderr"; exit 1 }
  }
' "$soak_json"

# SIGTERM -> graceful drain -> exit 0, checked through wait so a crash
# fails the gate.
kill -TERM "$server"
if wait "$server"; then
  server=
else
  echo "check_server: daemon exited non-zero on SIGTERM" >&2
  exit 1
fi

# field NAME: pull a numeric field out of the one-line summary.
field() {
  awk -v name="$1" '
    {
      if (match($0, "\"" name "\":[0-9.]+")) {
        print substr($0, RSTART + length(name) + 3, RLENGTH - length(name) - 3)
      }
    }
  ' "$soak_json"
}

echo "check_server: $(field req_per_s) req/s, p50 $(field p50_ms) ms, p99 $(field p99_ms) ms"

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "### Server soak ($REQUESTS requests, $CONNS connections, $SESSIONS sessions)"
    echo ""
    echo "| req/s | p50 ms | p99 ms |"
    echo "|---:|---:|---:|"
    echo "| $(field req_per_s) | $(field p50_ms) | $(field p99_ms) |"
  } >> "$GITHUB_STEP_SUMMARY"
fi

echo "check_server: ok ($REQUESTS requests, 0 errors, consistent, graceful drain)"
