#!/usr/bin/env bash
# Compiler census of the library surface (DESIGN.md section 21).
#
# For every `val` entry of lib/*/*.mli, asks the compiler whether any
# code outside the entry's own module, other than the tests, needs it:
# on a copy of the committed tree with test/ deleted, the entry is
# dropped from its .mli and `dune build --profile release` builds lib/,
# bin/, bench/ (bench/e2e too), tools/ and examples/.  A build that
# still succeeds means the entry has no non-test caller ("free"); a
# failing one means something needs it ("used").  An entry is its
# `val` line plus the lines below it indented further (its type);
# its doc comment stays, which the release profile does not reject.
#
# Usage: scripts/surface_census.sh WORKDIR [REV] > census.tsv
#   Censuses commit REV (default HEAD); WORKDIR must not exist.
#   Output: one line per entry,
#   FILE <tab> LINE <tab> NAME <tab> used|free.  About 15 minutes for
#   the 561 entries at 2924113 on two cores.
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
work=${1:?usage: surface_census.sh WORKDIR [REV]}
rev=${2:-HEAD}
[ ! -e "$work" ] || { echo "surface_census: $work exists" >&2; exit 2; }
mkdir -p "$work"
git -C "$repo" archive "$rev" | tar -x -C "$work"
cd "$work"
rm -rf test
dune build --profile release 2>/dev/null || { echo "surface_census: base build fails" >&2; exit 1; }

drop() { # FILE LINE: print FILE without the entry that starts at LINE
  awk -v l="$2" '
    function indent(s) { match(s, /^ */); return RLENGTH }
    NR == l { d = indent($0); skip = 1; next }
    skip && $0 ~ /[^ ]/ && indent($0) > d { next }
    { skip = 0; print }' "$1"
}

for mli in lib/*/*.mli; do
  grep -n '^ *val ' "$mli" | while IFS=: read -r line text; do
    name=$(echo "$text" | sed -E 's/^ *val +(\([^)]*\)|[^ :]+).*/\1/')
    cp "$mli" "$mli.orig"
    drop "$mli.orig" "$line" > "$mli"
    if dune build --profile release 2>/dev/null; then verdict=free; else verdict=used; fi
    mv "$mli.orig" "$mli"
    printf '%s\t%s\t%s\t%s\n' "$mli" "$line" "$name" "$verdict"
  done
done
