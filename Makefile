# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check ci experiments examples clean doc

all: build

# Pre-commit gate (documented in README): full build, test suite, and a
# smoke bench --json into the git-ignored bench/results/ (exercises the
# micro, speedup, msbfs, observability-overhead and large-n sections and
# the JSON writer).
check:
	dune build @all
	dune runtest
	@mkdir -p bench/results && \
	dune exec bench/main.exe -- --json bench/results/BENCH_smoke.json \
	  > bench/results/bench_smoke.log 2>&1 && \
	grep -q '"obs_overhead"' bench/results/BENCH_smoke.json && \
	grep -q '"msbfs"' bench/results/BENCH_smoke.json && \
	grep -q '"bigbench"' bench/results/BENCH_smoke.json && \
	echo "check: ok (smoke bench in bench/results/)" || \
	{ cat bench/results/bench_smoke.log; exit 1; }

# Everything CI runs, in the same order (see .github/workflows/ci.yml):
# build, tests, smoke bench, then the regression gates on its JSON —
# observability overhead within budget (obs_overhead), the hot path
# holding its floors over the BENCH_1 baseline (micro), the bit-parallel
# batch kernels bit-identical to per-source sweeps and holding their 4x
# apsp floor over the BENCH_2 pre-batching baseline (msbfs, speedup),
# the large-n engine's equivalence bits and ns/node ceiling (bigbench) —
# then the serving-layer soak (64 TCP connections x 50k requests on one
# daemon, zero errors, consistent answers, full request count, graceful
# drain), the campaign crash-resume gate (a reference run and a SIGKILL
# mid-campaign + resume must render byte-identical report.json, and
# `bbc campaign report` must recompute it from each directory), and
# the differential-fuzzing gate (every engine pair mismatch-free under a
# fixed seed, plus the selfcheck planted bug caught and shrunk to n <= 8).
ci: check
	scripts/check_obs_overhead.sh bench/results/BENCH_smoke.json
	scripts/check_kernels.sh bench/results/BENCH_smoke.json
	scripts/check_bigbench.sh bench/results/BENCH_smoke.json
	scripts/check_server.sh
	scripts/check_campaign.sh
	scripts/check_fuzz.sh

build:
	dune build @all

test:
	dune runtest

test-capture:
	@mkdir -p bench/results
	dune runtest --force --no-buffer 2>&1 | tee bench/results/test_output.txt

experiments:
	dune exec bin/bbc_cli.exe -- experiment

examples:
	dune exec examples/quickstart.exe
	dune exec examples/social_network.exe
	dune exec examples/p2p_overlay.exe
	dune exec examples/cayley_tour.exe
	dune exec examples/np_hardness.exe

clean:
	dune clean
