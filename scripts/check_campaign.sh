#!/bin/sh
# Crash-resume determinism gate on the campaign runner (DESIGN.md
# section 15): the final report.json must be a pure function of the
# spec — independent of jobs, chunk size and interruption.  Two legs
# over one fixed ~800-unit spec:
#   - reference: run to completion in-process, then require
#     `bbc campaign report` to recompute byte-identical output from the
#     checkpoints alone;
#   - crash-resume: start the same campaign with tiny chunks, SIGKILL
#     it once a few chunk files exist (no report.json yet), resume with
#     a different chunk size and jobs count, and require report.json to
#     be byte-identical to the reference (and at least one unit to have
#     been skipped from the checkpoints), and `bbc campaign report` to
#     recompute the same bytes from the resumed checkpoints.
#
# Usage: scripts/check_campaign.sh
#   (override SEEDS_PER_POINT/OUT_DIR)
set -eu

SEEDS_PER_POINT=${SEEDS_PER_POINT:-100}
OUT_DIR=${OUT_DIR:-bench/results}

dune build bin/bbc_cli.exe

bbc=_build/default/bin/bbc_cli.exe

tmpdir=$(mktemp -d /tmp/bbc-check-campaign-XXXXXX)
trap 'rm -rf "$tmpdir"' EXIT INT TERM
mkdir -p "$OUT_DIR"

# 2 points x 2 inits x 2 schedulers x SEEDS_PER_POINT seeds = 8 cells,
# 8 * SEEDS_PER_POINT units: big enough that a prompt SIGKILL lands
# mid-campaign, small enough to finish both legs in CI seconds.
cat > "$tmpdir/spec.json" <<SPEC
{"type":"bbc-campaign","name":"check-campaign","seed":2008,
 "seeds_per_point":$SEEDS_PER_POINT,"max_rounds":60,
 "points":[
   {"generator":{"kind":"sparse","zero_pct":50,"max_weight":3},"n":10,"k":2},
   {"generator":{"kind":"catalog","name":"ring"},"n":8,"k":1}],
 "inits":["empty","random"],
 "schedulers":["round-robin","max-cost"]}
SPEC
total=$((8 * SEEDS_PER_POINT))

# Leg 1: uninterrupted reference run.
"$bbc" campaign run --spec "$tmpdir/spec.json" --out "$tmpdir/ref" \
  --checkpoint-every 64 > "$tmpdir/ref.log"
grep -q "units:    $total total, 0 skipped, $total executed, 0 quarantined" \
  "$tmpdir/ref.log" || {
  echo "check_campaign: reference run did not execute all $total units" >&2
  cat "$tmpdir/ref.log" >&2
  exit 1
}
"$bbc" campaign report --out "$tmpdir/ref" | cmp - "$tmpdir/ref/report.json" || {
  echo "check_campaign: 'campaign report' disagrees with report.json" >&2
  exit 1
}

# Leg 2: SIGKILL mid-campaign, then resume with different chunking/jobs.
"$bbc" campaign run --spec "$tmpdir/spec.json" --out "$tmpdir/crash" \
  --checkpoint-every 4 --jobs 2 > "$tmpdir/crash.log" 2>&1 &
victim=$!
i=0
while [ "$(find "$tmpdir/crash" -maxdepth 1 -name 'chunk-*' 2>/dev/null | wc -l)" -lt 3 ]; do
  i=$((i + 1))
  if [ "$i" -gt 400 ]; then
    echo "check_campaign: no checkpoint chunks appeared before timeout" >&2
    exit 1
  fi
  sleep 0.05
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
if [ -f "$tmpdir/crash/report.json" ]; then
  echo "check_campaign: campaign finished before SIGKILL; raise SEEDS_PER_POINT" >&2
  exit 1
fi
chunks=$(find "$tmpdir/crash" -maxdepth 1 -name 'chunk-*' | wc -l)
echo "check_campaign: killed mid-campaign with $chunks chunk(s) checkpointed"
"$bbc" campaign resume --out "$tmpdir/crash" --checkpoint-every 32 --jobs 1 \
  > "$tmpdir/resume.log"
skipped=$(sed -n 's/^units: *[0-9]* total, \([0-9]*\) skipped.*/\1/p' "$tmpdir/resume.log")
if [ -z "$skipped" ] || [ "$skipped" -lt 1 ]; then
  echo "check_campaign: resume skipped no units ($skipped)" >&2
  cat "$tmpdir/resume.log" >&2
  exit 1
fi
cmp "$tmpdir/ref/report.json" "$tmpdir/crash/report.json" || {
  echo "check_campaign: crash-resume report differs from reference" >&2
  exit 1
}
"$bbc" campaign report --out "$tmpdir/crash" | cmp - "$tmpdir/crash/report.json" || {
  echo "check_campaign: 'campaign report' disagrees with the resumed report.json" >&2
  exit 1
}
echo "check_campaign: crash-resume report byte-identical ($skipped units from checkpoints)"

cp "$tmpdir/ref/report.json" "$OUT_DIR/campaign_report.json"

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "### Campaign crash-resume gate ($total units, 8 cells)"
    echo ""
    echo "- reference / crash-resume reports and their \`campaign report\` recomputations: byte-identical"
    echo "- chunks checkpointed before SIGKILL: $chunks; units resumed from disk: $skipped"
  } >> "$GITHUB_STEP_SUMMARY"
fi

echo "check_campaign: ok ($total units x 2 legs, reports byte-identical)"
