//! The grid determinism matrix: sweep JSONL must be byte-identical
//! across shard counts and sweep thread counts, independently.
//!
//! This is the in-repo twin of the CI `tengig-check grid` gate (which compares
//! the same report against `goldens/grid.jsonl` at shards 1 and 4); here
//! the matrix also crosses shard count with sweep threads to pin the two
//! parallelism axes as orthogonal.

use tengig::experiments::grid::{grid_sweep_report, run_grid, standard_presets, GridPreset};
use tengig::experiments::{pair, run_to_completion, XOVER_PROP};
use tengig::lab::{Ev, Grid, GridRt};
use tengig::sweep::SweepRunner;
use tengig::{App, Lab, LadderRung};
use tengig_ethernet::Mtu;
use tengig_net::{Hop, Path};
use tengig_sim::{Bandwidth, MetricKind, Nanos, ObsConfig, Scope, SimRng};
use tengig_tools::{NttcpReceiver, NttcpSender};

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

/// Each link's observability series is recorded by exactly the shard
/// owning its transmitting host — for a link two flows share from one
/// host too — and a link no flow routes is recorded by no shard.
#[test]
fn each_link_is_sampled_by_the_shard_owning_its_transmitter() {
    let path = Path {
        hops: vec![Hop::wire("xover", Bandwidth::from_gbps(10), XOVER_PROP)],
    };
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    // Hosts 0 → 1: two flows share the forward link, each has a private
    // reverse link, and one link carries nothing.
    let world = || {
        let mut lab = Lab::new();
        let mut rng = SimRng::seeded(SEED);
        let a = lab.add_host(cfg);
        let b = lab.add_host(cfg);
        let shared = lab.add_link(&path, rng.fork("shared"));
        let _unrouted = lab.add_link(&path, rng.fork("unrouted"));
        for f in 0..2 {
            let rev = lab.add_link(&path, rng.fork(&format!("rev-{f}")));
            let app = App::Nttcp {
                tx: NttcpSender::new(8948, 20),
                rx: NttcpReceiver::new(8948 * 20),
            };
            lab.add_flow(a, b, vec![shared], vec![rev], app);
        }
        lab
    };
    // Link index → its transmitting host (`None`: routed by no flow).
    let tx_host = [Some(0), None, Some(1), Some(1)];
    let obs = ObsConfig {
        sample_interval: Nanos::from_micros(10),
        ..ObsConfig::default()
    };
    for shards in [1usize, 2] {
        let mut grid = Grid::build(shards, path.base_latency(), SEED, Some(&obs), None, world);
        grid.run();
        let owner = grid.shards()[0]
            .lab
            .grid()
            .expect("grid mode")
            .owner
            .clone();
        for (s, shard) in grid.shards_mut().iter_mut().enumerate() {
            let tl = shard.lab.take_timelines().expect("obs was on");
            for (l, tx) in tx_host.iter().enumerate() {
                let scope = Scope::Link { link: l as u32 };
                let recorded = tl.get(scope, MetricKind::QueueDrops).is_some();
                let owns = tx.is_some_and(|h| owner[h] == s);
                assert_eq!(
                    recorded, owns,
                    "link {l} at {shards} shards: shard {s} recorded={recorded}"
                );
            }
        }
    }
}

/// Every lab runs one execution semantics: a back-to-back world run
/// unpartitioned through `experiments::pair` equals the same world run
/// through `Grid` at 1 and 2 shards — completion instant, delivered
/// bytes, events net of obs samples, and the merged timelines byte for
/// byte.
#[test]
fn an_unpartitioned_pair_equals_the_same_world_on_a_grid() {
    const SEED: u64 = 7;
    let path = Path {
        hops: vec![Hop::wire("xover", Bandwidth::from_gbps(10), XOVER_PROP)],
    };
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let obs = ObsConfig {
        sample_interval: Nanos::from_micros(100),
        ..ObsConfig::default()
    };
    let world = || {
        let app = App::Nttcp {
            tx: NttcpSender::new(8948, 20_000),
            rx: NttcpReceiver::new(8948 * 20_000),
        };
        pair(cfg, cfg, &path, &path, app, SEED)
    };

    let (mut lab, mut eng) = world();
    lab.enable_obs(&obs, SEED);
    run_to_completion(&mut lab, &mut eng);
    let events = eng.executed() - lab.prof().fired[Ev::ObsSample.prof_idx()];
    let flow = &lab.flows[0];
    let (t_done, received) = (flow.meas.t_done, flow.app.received());
    assert_eq!(received, 8948 * 20_000);
    let timelines = lab.take_timelines().expect("obs was on").to_jsonl();

    for shards in [1usize, 2] {
        let mut grid = Grid::build(shards, path.base_latency(), SEED, Some(&obs), None, || {
            world().0
        });
        grid.run();
        let (grid_events, merged) = grid.finish();
        let rx = grid.rx(0);
        assert_eq!(rx.meas.t_done, t_done, "t_done at {shards} shards");
        assert_eq!(rx.app.received(), received, "bytes at {shards} shards");
        assert_eq!(grid_events, events, "events at {shards} shards");
        assert_eq!(
            merged.expect("obs was on").to_jsonl(),
            timelines,
            "timelines at {shards} shards"
        );
    }
}

/// A grid runtime built for fewer flows than the lab holds is rejected
/// when the partition is installed, not deep inside the event loop.
#[test]
#[should_panic(expected = "grid key mint must cover every flow")]
fn enable_grid_rejects_a_flow_count_mismatch() {
    let path = Path {
        hops: vec![Hop::wire("xover", Bandwidth::from_gbps(10), XOVER_PROP)],
    };
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let mut lab = Lab::new();
    let mut rng = SimRng::seeded(SEED);
    let a = lab.add_host(cfg);
    let b = lab.add_host(cfg);
    let fwd = lab.add_link(&path, rng.fork("fwd"));
    let rev = lab.add_link(&path, rng.fork("rev"));
    let app = App::Nttcp {
        tx: NttcpSender::new(8948, 20),
        rx: NttcpReceiver::new(8948 * 20),
    };
    lab.add_flow(a, b, vec![fwd], vec![rev], app);
    lab.enable_grid(GridRt::new(1, 0, vec![0, 0], 0));
}
