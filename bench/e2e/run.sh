#!/usr/bin/env bash
# Build the end-to-end benchmark and the bbc CLI it drives, then run it:
#   bash bench/e2e/run.sh --workload serve-read --seed 1 --seconds 12 --trace 0
# Build output goes to stderr; the benchmark's own output to stdout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/bbc_bench.exe bin/bbc_cli.exe >&2
exec ./_build/default/bench/e2e/bbc_bench.exe "$@"
