#!/bin/sh
# Differential-fuzzing gate (DESIGN.md section 12), two halves:
#
#   1. The real suites — every engine pair (list-graph oracles in
#      Bbc_fuzz.Reference vs CSR kernels, batched vs per-source sweeps,
#      best response vs its reference DFS and exhaustive search,
#      in-process server vs direct calls, campaign units vs dynamics) —
#      must report zero mismatches under a fixed seed and budget.
#   2. The harness itself must still catch bugs: the "selfcheck" suite
#      runs the same social-cost property against a deliberately broken
#      oracle (drops node 0), and the gate requires the planted bug to
#      be FOUND, and SHRUNK to an instance with n <= 8 within the step
#      budget.  A fuzzer that goes green when the code is wrong is
#      worse than no fuzzer.
#
# Usage: scripts/check_fuzz.sh
#        (override FUZZ_SEED / FUZZ_COUNT / FUZZ_SHRINK_STEPS / FUZZ_MAX_N
#         / FUZZ_MSBFS_COUNT)
set -eu

SEED=${FUZZ_SEED:-7}
COUNT=${FUZZ_COUNT:-60}
STEPS=${FUZZ_SHRINK_STEPS:-400}
MAX_N=${FUZZ_MAX_N:-8}
MSBFS_COUNT=${FUZZ_MSBFS_COUNT:-125}

dune build bin/bbc_cli.exe
bbc=_build/default/bin/bbc_cli.exe

echo "check_fuzz: all suites, seed=$SEED count=$COUNT max-shrink-steps=$STEPS"
"$bbc" fuzz --suite all --seed "$SEED" --count "$COUNT" \
  --max-shrink-steps "$STEPS" || {
  echo "check_fuzz: engine-pair mismatch (see counterexample above)" >&2
  exit 1
}

# Deeper soak on the bit-parallel batch kernels alone: 5 properties x
# $MSBFS_COUNT cases (default 625 total) across window boundaries,
# bans, shuffled source subsets and scratch reuse.
echo "check_fuzz: msbfs soak, seed=$((SEED + 1)) count=$MSBFS_COUNT"
"$bbc" fuzz --suite msbfs --seed "$((SEED + 1))" --count "$MSBFS_COUNT" \
  --max-shrink-steps "$STEPS" || {
  echo "check_fuzz: msbfs batch-kernel mismatch (see counterexample above)" >&2
  exit 1
}

echo "check_fuzz: selfcheck (planted broken oracle must be caught + shrunk)"
out=/tmp/check_fuzz_selfcheck.txt
if "$bbc" fuzz --suite selfcheck --seed "$SEED" --count "$COUNT" \
  --max-shrink-steps "$STEPS" > "$out" 2>&1; then
  cat "$out"
  echo "check_fuzz: selfcheck passed — the planted bug was NOT found" >&2
  exit 1
fi

grep -q "FAIL at case" "$out" || {
  cat "$out"
  echo "check_fuzz: selfcheck exited non-zero without a FAIL report" >&2
  exit 1
}

n=$(sed -n 's/^ *shrunk instance n = \([0-9][0-9]*\).*/\1/p' "$out" | head -1)
[ -n "$n" ] || {
  cat "$out"
  echo "check_fuzz: no shrunk-instance size in selfcheck output" >&2
  exit 1
}
if [ "$n" -gt "$MAX_N" ]; then
  cat "$out"
  echo "check_fuzz: planted bug shrunk only to n = $n (> $MAX_N)" >&2
  exit 1
fi

echo "check_fuzz: ok (all pairs clean; planted bug caught and shrunk to n = $n)"
