//! The grid determinism matrix: sweep JSONL must be byte-identical
//! across shard counts and sweep thread counts, independently.
//!
//! This is the in-repo twin of the CI `tengig-check grid` gate (which compares
//! the same report against `goldens/grid.jsonl` at shards 1 and 4); here
//! the matrix also crosses shard count with sweep threads to pin the two
//! parallelism axes as orthogonal.

use tengig::experiments::grid::{grid_sweep_report, run_grid, standard_presets, GridPreset};
use tengig::sweep::SweepRunner;

/// The pinned master seed of the grid golden (kept in sync with
/// `tengig_bench::check::SEED`).
const SEED: u64 = 2003;

#[test]
fn sweep_jsonl_is_byte_identical_across_shards_and_threads() {
    let presets = standard_presets();
    let reference = grid_sweep_report(&presets, 1, SEED, SweepRunner::new(1))
        .1
        .to_jsonl();
    assert!(reference.contains("\"sweep\":\"grid/fabric\""));
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            if (shards, threads) == (1, 1) {
                continue;
            }
            let got = grid_sweep_report(&presets, shards, SEED, SweepRunner::new(threads))
                .1
                .to_jsonl();
            assert_eq!(
                reference, got,
                "grid sweep diverged at shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn executed_event_totals_are_exactly_shard_count_invariant() {
    let preset = GridPreset::fat_tree(2, 4, 2);
    let one = run_grid(&preset, 1, SEED);
    for shards in [2usize, 3, 4] {
        let n = run_grid(&preset, shards, SEED);
        assert_eq!(
            one.events, n.events,
            "event totals diverged at {shards} shards"
        );
        assert_eq!(one.last_done, n.last_done);
        assert_eq!(one.payload_bytes, n.payload_bytes);
    }
}

#[test]
fn torus_preset_crosses_shards_and_still_merges() {
    let preset = GridPreset::torus([2, 2, 2]);
    let one = run_grid(&preset, 1, SEED);
    let four = run_grid(&preset, 4, SEED);
    assert_eq!(one.flows, 8);
    assert_eq!(one.events, four.events);
    assert_eq!(one.last_done, four.last_done);
    assert!(one.aggregate_gbps > 1.0);
}
