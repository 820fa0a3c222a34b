# Development targets. `make ci` is the gate every change must pass.
#
# `ci` ordering: cheap structural gates first (build, test, fmt, clippy, doc),
# then the benchmark crate's own tests, then the determinism gates in
# increasing cost — lint (static: runs its own selftests, then lints the
# live tree and byte-compares the JSON report against
# goldens/lint_baseline.json) before golden-check (dynamic: full
# pinned-seed sweeps of every registered family). Every family runs the
# same execution semantics; golden-check runs the families that take no
# shard count first and the ones gated at shards {1, 2, 4} last, so a
# plain determinism break surfaces in the cheaper gates first and a
# failure that appears only at 2 or 4 shards points straight at the
# partition. A static violation fails in seconds instead of after a
# minute of simulation.

CARGO ?= cargo

.PHONY: ci ci-times build test fmt clippy doc benchmark-test lint lint-selftest golden-check bench-compare

CI_GATES := build test fmt clippy doc benchmark-test lint golden-check

ci: $(CI_GATES)

# Wall seconds of every `ci` gate on a warm tree; not part of `ci`. Each
# gate runs once untimed (so its artifacts are built) and then three
# timed times; the median of the three is printed as a markdown table,
# with the core count. Stops at the first gate that fails.
ci-times:
	@echo "| gate | median wall s (3 warm runs) |"; echo "|---|---|"; \
	for g in $(CI_GATES); do \
		$(MAKE) -s $$g >/dev/null 2>&1 || { echo "ci-times: $$g failed"; exit 1; }; \
		ts=""; \
		for i in 1 2 3; do \
			t0=$$(date +%s.%N); \
			$(MAKE) -s $$g >/dev/null 2>&1 || { echo "ci-times: $$g failed"; exit 1; }; \
			ts="$$ts $$(echo "$$t0 $$(date +%s.%N)" | awk '{ printf "%.1f", $$2 - $$1 }')"; \
		done; \
		echo "| $$g | $$(echo $$ts | tr ' ' '\n' | sort -n | sed -n 2p) |"; \
	done; \
	echo; echo "nproc: $$(nproc)"

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --all-targets -- -D warnings

# Rustdoc gate: every intra-doc link must resolve to a public item, so a
# doc comment naming a deleted or private function fails here instead of
# rotting silently.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --offline --no-deps --workspace

# The wall-clock benchmark (BENCHMARK.json) is a separate cargo
# workspace under benchmark/ that builds the simulator crates through
# path dependencies, so nothing else compiles it: run its tests here, so
# a library API change cannot silently break the repository's only
# timing harness.
benchmark-test:
	$(CARGO) test --offline --manifest-path benchmark/Cargo.toml

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
# report), faults (burst, flap, chaos), counts (exact event and sim-byte
# counts of seven pinned workloads), grid (the sharded fabric; the
# goldens are shard-count-invariant; one sweep yields the report and the
# gated profiling sidecar) and serve (open-loop FCT report plus CPU
# sidecar). A missing golden is an error, not a pass.
# On mismatch the computed document lands in target/<doc>_current.jsonl.
# Run one family with `tengig-check <family> [--shards N]`; regenerate
# deliberately by appending `--write-golden`.
golden-check:
	$(CARGO) run --release -q -p tengig-bench --bin tengig-check -- all

# Before/after timing of benchmark workloads; not part of `ci`. Builds
# BASE's benchmark from a `git archive` export under target/ (removed
# again once built: the goldens it checks against are compiled in) and
# the working tree's benchmark. Then runs PAIRS pairs of `run` per
# workload at the benchmark's own run length, alternating which side
# goes first so a drifting host cannot favour one side, and judges the
# two sets with `compare`. WORKLOAD is one name or a space-separated
# list; every pair runs each listed workload once per side. Exits 1 on a
# regression or if any run failed.
#   make bench-compare WORKLOAD="wan_lossy bulk_b2b" [BASE=HEAD~1] [PAIRS=10] [SEED=2003]
BASE ?= HEAD~1
PAIRS ?= 10
WORKLOAD ?= serve_openloop
SEED ?= 2003
BC := target/bench-compare

bench-compare:
	rm -rf $(BC)/base $(BC)/base.jsonl $(BC)/change.jsonl $(BC)/runs.log
	mkdir -p $(BC)/base
	git archive $(BASE) | tar -x -C $(BC)/base
	CARGO_TARGET_DIR=$(CURDIR)/$(BC)/base-target $(CARGO) build --release --offline -q \
		--manifest-path $(BC)/base/benchmark/Cargo.toml
	rm -rf $(BC)/base
	$(CARGO) build --release --offline -q --manifest-path benchmark/Cargo.toml
	@failed=0; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi; \
		for w in $(WORKLOAD); do \
			echo "pair $$i/$(PAIRS) $$w: $$order"; \
			for side in $$order; do \
				if [ $$side = base ]; then bin=$(BC)/base-target/release/tengig-benchmark; \
				else bin=benchmark/target/release/tengig-benchmark; fi; \
				if ! $$bin run --workload $$w --seed $(SEED) --out $(BC)/$$side.jsonl \
					>> $(BC)/runs.log 2>&1; then \
					echo "  $$side run failed (see $(BC)/runs.log)"; failed=$$((failed + 1)); \
				fi; \
			done; \
		done; \
	done; \
	benchmark/target/release/tengig-benchmark compare $(BC)/base.jsonl $(BC)/change.jsonl \
		|| exit 1; \
	if [ $$failed -gt 0 ]; then echo "bench-compare: $$failed run(s) failed"; exit 1; fi
