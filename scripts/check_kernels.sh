#!/bin/sh
# Regression gate on the flat-CSR kernels and pooled workspaces
# (DESIGN.md sections 11 and 16).  Checks against a bench --json report
# (their bit-identity with the list-graph references is a tier-1 test,
# test/test_csr.ml):
#
#   1. The evaluation hot path must hold its speedup over the recorded
#      pre-CSR baseline (BENCH_1.json): micro ns_per_run of
#      "best_response/exact (n=40,k=2)" at least KERNELS_BR_FLOOR
#      (default 2) times faster, and "dynamics/one round (n=40,k=2)" at
#      least KERNELS_DYN_FLOOR (default 1.5) times faster.  Raise or
#      lower the floors by env var when a runner generation proves
#      slower or noisier than the machine that wrote the baseline.
#   2. Multi-source bit-parallel BFS gate: every "msbfs" row must
#      report results_match = true, and the batched apsp time must beat
#      the pre-batching per-source time recorded in MSBFS_BASELINE
#      (default BENCH_2.json, speedup row "graph/apsp (n=512,k=3)"
#      sequential_s) by at least MSBFS_APSP_FLOOR (default 4) times.
#      When the report was taken on a multi-core runner
#      (recommended_domains >= 2), the jobs=2 speedup rows for
#      eval/all_costs and stability/is_stable must also hold
#      MSBFS_JOBS2_FLOOR (default 1.5); on single-core runners that
#      check is skipped — there is no parallelism to measure.
#
# Usage: scripts/check_kernels.sh bench/results/BENCH_smoke.json [BASELINE.json]
set -eu

json=${1:?usage: check_kernels.sh BENCH.json [BASELINE.json]}
baseline=${2:-BENCH_1.json}
br_floor=${KERNELS_BR_FLOOR:-2}
dyn_floor=${KERNELS_DYN_FLOOR:-1.5}
msbfs_baseline=${MSBFS_BASELINE:-BENCH_2.json}
msbfs_floor=${MSBFS_APSP_FLOOR:-4}
jobs2_floor=${MSBFS_JOBS2_FLOOR:-1.5}

[ -f "$json" ] || { echo "check_kernels: $json not found" >&2; exit 1; }
[ -f "$baseline" ] || { echo "check_kernels: baseline $baseline not found" >&2; exit 1; }
[ -f "$msbfs_baseline" ] || { echo "check_kernels: msbfs baseline $msbfs_baseline not found" >&2; exit 1; }

# --- 1. hot-path floors vs the recorded baseline -----------------------
micro_ns() {
  awk -v want="$2" '
    /"micro"/ && /\[/ { section = 1; next }
    section && /\]/ { section = 0 }
    section && /"ns_per_run"/ {
      name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
      if (name == want) {
        ns = $0; sub(/.*"ns_per_run": /, "", ns); sub(/[,}].*/, "", ns)
        print ns
        exit
      }
    }
  ' "$1"
}

gate() {
  bench_name=$1; floor=$2
  base=$(micro_ns "$baseline" "$bench_name")
  cur=$(micro_ns "$json" "$bench_name")
  [ -n "$base" ] || { echo "check_kernels: $bench_name missing from $baseline" >&2; exit 1; }
  [ -n "$cur" ] || { echo "check_kernels: $bench_name missing from $json" >&2; exit 1; }
  awk -v base="$base" -v cur="$cur" -v floor="$floor" -v name="$bench_name" '
    BEGIN {
      sp = base / cur
      printf "  %-44s %8.2fx vs baseline (floor %sx)\n", name, sp, floor
      if (sp + 0 < floor + 0) {
        printf "check_kernels: %s below %sx floor (%.1f -> %.1f ns)\n", name, floor, base, cur > "/dev/stderr"
        exit 1
      }
    }
  '
}

gate "best_response/exact (n=40,k=2)" "$br_floor"
gate "dynamics/one round (n=40,k=2)" "$dyn_floor"

# --- 2. multi-source bit-parallel BFS gate -----------------------------
# 2a. every differential row of the "msbfs" section must match.
awk '
  /"msbfs"/ && /\[/ { section = 1; next }
  section && /\]/ { section = 0 }
  section && /"results_match"/ {
    name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    sp = $0; sub(/.*"speedup": /, "", sp); sub(/[,}].*/, "", sp)
    match_ok = ($0 ~ /"results_match": true/)
    printf "  %-44s %8.2fx  %s\n", name, sp, match_ok ? "match" : "MISMATCH"
    checked++
    if (!match_ok) { bad++ }
  }
  END {
    if (checked == 0) { print "check_kernels: no msbfs entries found" > "/dev/stderr"; exit 1 }
    if (bad > 0) { exit 1 }
  }
' "$json"

# Pull one numeric field from a named row of a named top-level array
# section (rows are one line each; names matched literally, so the
# parens in bench names are safe).  Optional 5th arg filters on the
# row's "jobs" field.
json_num() {
  awk -v sec="$2" -v want="$3" -v field="$4" -v jobs="${5:-}" '
    index($0, "\"" sec "\"") && /\[/ { section = 1; next }
    section && /\]/ { section = 0 }
    section && index($0, "\"name\": \"" want "\"") {
      if (jobs != "" && !index($0, "\"jobs\": " jobs ",")) next
      v = $0
      sub(".*\"" field "\": ", "", v); sub(/[,}].*/, "", v)
      print v; exit
    }
  ' "$1"
}

# 2b. batched apsp vs the pre-batching per-source time recorded before
# the kernel landed (BENCH_2 measured Apsp.compute when it was one
# scalar sweep per source).
base_apsp=$(json_num "$msbfs_baseline" speedup "graph/apsp (n=512,k=3)" sequential_s)
cur_apsp=$(json_num "$json" msbfs "msbfs/apsp (n=512,k=3)" batched_s)
[ -n "$base_apsp" ] || { echo "check_kernels: apsp row missing from $msbfs_baseline" >&2; exit 1; }
[ -n "$cur_apsp" ] || { echo "check_kernels: msbfs/apsp row missing from $json" >&2; exit 1; }
awk -v base="$base_apsp" -v cur="$cur_apsp" -v floor="$msbfs_floor" '
  BEGIN {
    sp = base / cur
    printf "  %-44s %8.2fx vs pre-batching baseline (floor %sx)\n", \
      "msbfs/apsp (n=512,k=3)", sp, floor
    if (sp + 0 < floor + 0) {
      printf "check_kernels: batched apsp below %sx floor (%.6f -> %.6f s)\n", \
        floor, base, cur > "/dev/stderr"
      exit 1
    }
  }
'

# 2c. rechunked jobs=2 scaling — only meaningful where the runner has
# cores to scale onto.
rec_domains=$(sed -n 's/.*"recommended_domains": \([0-9][0-9]*\).*/\1/p' "$json" | head -1)
if [ "${rec_domains:-1}" -lt 2 ]; then
  echo "  jobs=2 scaling: skipped (recommended_domains = ${rec_domains:-?} < 2)"
else
  for name in "eval/all_costs (n=2000,k=3)" "stability/is_stable willows(n=126)"; do
    seq_s=$(json_num "$json" speedup "$name" sequential_s 2)
    par_s=$(json_num "$json" speedup "$name" parallel_s 2)
    [ -n "$seq_s" ] && [ -n "$par_s" ] || {
      echo "check_kernels: jobs=2 speedup row for $name missing from $json" >&2
      exit 1
    }
    awk -v seq="$seq_s" -v par="$par_s" -v floor="$jobs2_floor" -v name="$name" '
      BEGIN {
        sp = seq / par
        printf "  %-44s %8.2fx at jobs=2 (floor %sx)\n", name, sp, floor
        if (sp + 0 < floor + 0) {
          printf "check_kernels: %s jobs=2 speedup below %sx\n", name, floor > "/dev/stderr"
          exit 1
        }
      }
    '
  done
fi

echo "check_kernels: ok"
