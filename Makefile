# Development targets. `make ci` is the gate every change must pass.
#
# `ci` ordering: cheap structural gates first (build, test, fmt, clippy),
# then the compile-only bench check, then the determinism gates in
# increasing cost — lint (static: runs its own selftests, then lints the
# live tree and byte-compares the JSON report against
# goldens/lint_baseline.json) before golden-check (dynamic: full
# pinned-seed sweeps of every registered family). golden-check itself
# runs the single-calendar families first and the sharded ones last, so a
# plain determinism break surfaces in the cheaper gates first and a
# shard-only failure points straight at the shard layer. A static
# violation fails in seconds instead of after a minute of simulation.

CARGO ?= cargo

.PHONY: ci build test fmt clippy benches-check lint lint-selftest golden-check bench bench-gate

ci: build test fmt clippy benches-check lint golden-check

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --all-targets -- -D warnings

# Bench targets are test = false (they regenerate full paper figures and
# would dominate `cargo test`); keep them compiling instead. Release
# profile: that is the profile they run under, and debug-only codegen
# issues in cold bench code are not worth a separate compile.
benches-check:
	$(CARGO) check --benches --release

# Determinism lint: lexes and parses every workspace source, forbids
# wall-clock time, unseeded RNGs, hash-map iteration, unwrap/panic and
# prints in hot paths, floats and lossy casts in the event loop, sweeps
# that bypass SweepRunner — and proves, over the call graph, that no
# hot-path root reaches a nondeterminism source. The JSON report lands in
# target/lint.json and must byte-match goldens/lint_baseline.json (zero
# findings). Runs the lint crate's own selftests first: a linter that
# no longer fires on its known-bad fixtures is a green light worth
# nothing. See crates/lint.
lint: lint-selftest
	mkdir -p target
	$(CARGO) run --release -q -p tengig-lint -- --json . > target/lint.json
	$(CARGO) run --release -q -p tengig-lint -- --baseline goldens/lint_baseline.json .

lint-selftest:
	$(CARGO) test -q -p tengig-lint

# Determinism golden gates: `tengig-check all` walks the family registry
# (crates/bench/src/check.rs) and runs each family at every shard count
# its row lists, on 1 and 4 sweep threads. Every document must be
# byte-identical across thread counts and byte-match its checked-in golden
# (goldens/*.jsonl): obs (the metrics side channel never touches the
# report), faults (burst, flap, chaos), grid (the sharded fabric; the
# golden is shard-count-invariant), prof (the gated profiling sidecar,
# and the profiled report equals the grid golden) and serve (open-loop
# FCT report plus CPU sidecar). A missing golden is an error, not a pass.
# On mismatch the computed document lands in target/<doc>_current.jsonl.
# Run one family with `tengig-check <family> [--shards N]`; regenerate
# deliberately by appending `--write-golden`.
golden-check:
	$(CARGO) run --release -q -p tengig-bench --bin tengig-check -- all

# Refresh the wall-clock benchmark baseline: runs the fixed pinned-seed
# workload per experiment family and rewrites BENCH_sim.json in place.
# Commit the result to claim a performance win (or accept a justified
# regression).
bench:
	$(CARGO) run --release -p tengig-bench --bin tengig-bench -- --out BENCH_sim.json

# Gate the current tree against the checked-in baseline: events/sec per
# family must stay within ±15% of BENCH_sim.json (both directions), and
# event/byte counts must match exactly. The fresh run is written next to
# the baseline for inspection, never over it.
bench-gate:
	$(CARGO) run --release -p tengig-bench --bin tengig-bench -- \
		--out target/BENCH_current.json --check BENCH_sim.json
