//! The self-profiling plane's contracts, as integration tests:
//!
//! * the gated "sim" profiling sidecar is byte-identical across shard
//!   counts {1, 2, 4} and sweep threads {1, 4} (the in-repo twin of the
//!   CI `tengig-check grid` gate against `goldens/prof_throughput.jsonl`);
//! * the wall-time plane reports nonzero barrier waiting on a
//!   multi-shard run while appearing in no golden-gated output;
//! * grid-mode observability timelines merge shard-count-invariantly.

use tengig::experiments::grid::{
    self, grid_sweep_report, run_grid, standard_presets, GridPreset, GridResult,
};
use tengig::sweep::SweepRunner;
use tengig_sim::{run_sharded_wall, Nanos, ObsConfig, Timelines, WallStats};

/// The pinned master seed of the grid and prof goldens (kept in sync
/// with `tengig_bench::check::SEED`).
const SEED: u64 = 2003;

/// One grid run with the wall plane collected, read into its result,
/// gated profile line and per-shard wall accounting.
fn profiled(preset: &GridPreset, shards: usize) -> (GridResult, String, Vec<WallStats>) {
    let mut world = grid::build(preset, shards, SEED, None);
    let mut wall = vec![WallStats::default(); shards];
    run_sharded_wall(world.shards_mut(), preset.lookahead(), Some(&mut wall));
    let result = grid::read(&mut world).0;
    (result, grid::profile(&preset.label(), SEED, &world), wall)
}

/// One grid run with observability on, read into its result and merged
/// timelines.
fn observed(preset: &GridPreset, shards: usize, obs: &ObsConfig) -> (GridResult, Timelines) {
    let mut world = grid::build(preset, shards, SEED, Some(obs));
    world.run();
    let (result, timelines) = grid::read(&mut world);
    (result, timelines.expect("obs was on"))
}

#[test]
fn prof_sidecar_is_byte_identical_across_shards_and_threads() {
    let presets = standard_presets();
    let sidecar = |shards, threads| {
        grid_sweep_report(&presets, shards, SEED, SweepRunner::new(threads))
            .2
            .concatenated()
    };
    let reference = sidecar(1, 1);
    assert!(reference.contains("\"prof\":\"sim\""));
    for shards in [1usize, 2, 4] {
        for threads in [1usize, 4] {
            if (shards, threads) == (1, 1) {
                continue;
            }
            assert_eq!(
                reference,
                sidecar(shards, threads),
                "prof sidecar diverged at shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn wall_plane_reports_barrier_stalls_outside_every_gated_byte() {
    let preset = GridPreset::fat_tree(2, 4, 2);
    let plain = run_grid(&preset, 4, SEED);
    let (profiled, sim, wall) = profiled(&preset, 4);
    // Same simulation: the wall plane rides outside the event loop.
    assert_eq!(plain.events, profiled.events);
    assert_eq!(plain.last_done, profiled.last_done);
    assert_eq!(plain.payload_bytes, profiled.payload_bytes);
    // Four shards synchronizing over thousands of conservative windows
    // must observe some barrier waiting, and each shard executes work.
    assert_eq!(wall.len(), 4);
    assert!(wall.iter().all(|w| w.windows > 0), "{wall:?}");
    let barrier_total: u64 = wall.iter().map(|w| w.barrier_wait_ns).sum();
    assert!(
        barrier_total > 0,
        "a 4-shard run must report some barrier wait"
    );
    // The wall-domain figures appear in no gated output.
    assert!(!sim.contains("barrier_wait_ns"));
    assert!(!sim.contains("\"wall\""));
    assert!(!sim.contains("execute_ns"));
}

#[test]
fn sim_section_counts_the_grid_event_anatomy() {
    let preset = GridPreset::fat_tree(2, 2, 1);
    let (r, sim, _) = profiled(&preset, 1);
    // Every arrival is its own front-class FrameArrival;
    // the retired IngressDrain slot and drain_batch histogram stay empty.
    let count = |name: &str| -> u64 {
        let tag = format!("\"{name}\":");
        let at = sim.find(&tag).unwrap_or_else(|| panic!("{name}")) + tag.len();
        let digits = sim[at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap_or_default();
        digits.parse().unwrap_or_else(|_| panic!("{name}: {}", sim))
    };
    assert!(count("FrameArrival") > 0, "{}", sim);
    assert_eq!(
        count("FrameArrival"),
        count("sched_front"),
        "one front-class event per arrival: {}",
        sim
    );
    assert_eq!(count("IngressDrain"), 0, "{}", sim);
    assert!(sim.contains("\"drain_batch\":{\"count\":0,"), "{}", sim);
    // The executed total in the section matches the merged result.
    assert!(sim.contains(&format!("\"executed\":{}", r.events)));
    // The coalescer's histogram saw batches.
    assert!(!sim.contains("\"rx_batch\":{\"count\":0,"));
    assert!(sim.contains("\"rx_batch\":{\"count\":"));
}

#[test]
fn grid_obs_timelines_merge_shard_count_invariantly() {
    let preset = GridPreset::fat_tree(2, 2, 1);
    // An odd interval keeps sample instants off the data events' grid.
    let cfg = ObsConfig {
        sample_interval: Nanos::from_nanos(99_989),
        ..ObsConfig::default()
    };
    let plain = run_grid(&preset, 1, SEED);
    let (r1, tl1) = observed(&preset, 1, &cfg);
    let reference = tl1.to_jsonl();
    assert!(reference.contains("cpu_busy_ns"));
    // Observability never changes the primary result, in grid mode too.
    assert_eq!(plain.payload_bytes, r1.payload_bytes);
    assert_eq!(plain.last_done, r1.last_done);
    assert_eq!(plain.events, r1.events, "events must be net of obs samples");
    for shards in [2usize, 4] {
        let (rn, tln) = observed(&preset, shards, &cfg);
        assert_eq!(plain.last_done, rn.last_done);
        assert_eq!(
            plain.events, rn.events,
            "events with obs on diverged at {shards} shards"
        );
        assert_eq!(
            reference,
            tln.to_jsonl(),
            "merged obs timelines diverged at {shards} shards"
        );
    }
}
