//! The `counts` gate: the exact work counts of seven pinned workloads.
//!
//! Each workload is a fixed-seed simulation of one experiment family, and
//! its engine event count and simulated payload bytes are pure functions
//! of that seed. [`counts`] runs the seven as the scenarios of one
//! [`SweepRunner`] sweep and renders one line per workload,
//! `{"name":…,"events":…,"sim_bytes":…}`, which the `counts` row of
//! [`crate::check::REGISTRY`] holds to `goldens/counts.jsonl`. Any drift
//! is a determinism or model change, never noise. Wall-clock timing of
//! the simulator lives in the `benchmark/` harness alone.

use std::fmt::Write as _;
use tengig::experiments::faults::{faults_lab_tuned, scaled_wan};
use tengig::experiments::grid::{run_grid, GridPreset};
use tengig::experiments::multiflow::{aggregate_seeded, Direction};
use tengig::experiments::wan::wan_lab_seeded;
use tengig::experiments::{b2b_lab, run_to_completion, run_window};
use tengig::lab::{App, Lab, LabEngine};
use tengig::{scenarios, LadderRung, SweepRunner};
use tengig_ethernet::Mtu;
use tengig_net::{FatTreeSpec, GilbertElliott, Impairments, WanSpec};
use tengig_sim::{Nanos, ObsConfig};
use tengig_tools::{NttcpReceiver, NttcpSender, Pktgen};

use crate::check::SEED;

/// Packet count per throughput-sweep point. Chosen so the whole workload
/// runs in about a second while still executing millions of events.
const SWEEP_COUNT: u64 = 200_000;

/// pktgen packet count.
const PKTGEN_COUNT: u64 = 5_000_000;

/// A pinned workload: its name and the computation returning `(events,
/// sim_bytes)`.
type Workload = (&'static str, fn() -> (u64, u64));

/// The gated workloads, in document order.
const WORKLOADS: [Workload; 7] = [
    ("throughput_sweep", throughput_sweep),
    ("throughput_sweep_obs", throughput_sweep_obs),
    ("multiflow", multiflow),
    ("wan_record", wan_record),
    ("wan_burst_loss", wan_burst_loss),
    ("pktgen", pktgen),
    ("grid_fabric", grid_fabric),
];

/// Fig. 3-5 shape: an NTTCP payload sweep, back-to-back, tuned windows.
fn throughput_sweep() -> (u64, u64) {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let mut events = 0;
    let mut bytes = 0;
    for (i, payload) in [512u64, 1448, 8948].into_iter().enumerate() {
        let app = App::Nttcp {
            tx: NttcpSender::new(payload, SWEEP_COUNT),
            rx: NttcpReceiver::new(payload * SWEEP_COUNT),
        };
        let (mut lab, mut eng) = b2b_lab(cfg, app, SEED + i as u64);
        run_to_completion(&mut lab, &mut eng);
        events += eng.executed();
        bytes += payload * SWEEP_COUNT;
    }
    (events, bytes)
}

/// The same payload sweep with the observability layer enabled: per-flow
/// metrics timelines sampled every 100 µs. The workload bytes match
/// `throughput_sweep` exactly; the extra events are the obs samples.
fn throughput_sweep_obs() -> (u64, u64) {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let obs = ObsConfig {
        sample_interval: Nanos::from_micros(100),
        ..ObsConfig::default()
    };
    let mut events = 0;
    let mut bytes = 0;
    for (i, payload) in [512u64, 1448, 8948].into_iter().enumerate() {
        let app = App::Nttcp {
            tx: NttcpSender::new(payload, SWEEP_COUNT),
            rx: NttcpReceiver::new(payload * SWEEP_COUNT),
        };
        let seed = SEED + i as u64;
        let (mut lab, mut eng) = b2b_lab(cfg, app, seed);
        lab.enable_obs(&obs, seed);
        run_to_completion(&mut lab, &mut eng);
        events += eng.executed();
        bytes += payload * SWEEP_COUNT;
    }
    (events, bytes)
}

/// §3.5.2 aggregation: GbE senders into the 10GbE host, windowed.
fn multiflow() -> (u64, u64) {
    let tengbe = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let w = Nanos::from_millis(800);
    let mut events = 0;
    let mut bytes = 0;
    for peers in [1usize, 2, 4] {
        let r = aggregate_seeded(
            tengbe,
            peers,
            Direction::IntoTenGbe,
            w,
            w,
            SEED + peers as u64,
        );
        events += r.events;
        bytes += r.window_bytes;
    }
    (events, bytes)
}

/// Run a single-flow lab over a window: the events executed and the
/// payload bytes delivered inside the window.
fn windowed((mut lab, mut eng): (Lab, LabEngine), warmup: Nanos, window: Nanos) -> (u64, u64) {
    let (b0, b1) = run_window(&mut lab, &mut eng, warmup, window, |lab, _| {
        lab.flows[0].app.received()
    });
    (eng.executed(), b1 - b0)
}

/// §4 Internet2 Land Speed Record: a windowed single-stream WAN run.
fn wan_record() -> (u64, u64) {
    let world = wan_lab_seeded(&WanSpec::record_run(), None, SEED);
    windowed(world, Nanos::from_secs(3), Nanos::from_secs(5))
}

/// The windowed WAN run again, but with Gilbert–Elliott burst loss on
/// the data path. `wan_record` is its control: `Impairments::none()`
/// short-circuits before any per-frame RNG draw, so that workload's event
/// count must not move when the impairment layer changes.
fn wan_burst_loss() -> (u64, u64) {
    let mut wan = scaled_wan(Nanos::from_millis(20), 64 << 20);
    wan.impair = Impairments::none().with_burst(GilbertElliott::bursty(3e-3, 8.0));
    let world = faults_lab_tuned(&wan, Some(256 << 10), SEED, &|s| s);
    windowed(world, Nanos::from_secs(2), Nanos::from_secs(5))
}

/// §3.5.2 packet generator: single-copy TCP-bypass blast.
fn pktgen() -> (u64, u64) {
    let cfg = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
    let payload = 8132u64;
    let (mut lab, mut eng) = b2b_lab(cfg, App::Pktgen(Pktgen::new(payload, PKTGEN_COUNT)), SEED);
    run_to_completion(&mut lab, &mut eng);
    (eng.executed(), payload * PKTGEN_COUNT)
}

/// The pinned fat-tree fabric on one shard: 64 GbE workstations in 4
/// racks feeding 2 10GbE spines, ~1.2M events. Its counts at other shard
/// counts are held equal by the `grid` and `prof` rows.
fn grid_fabric() -> (u64, u64) {
    let preset = GridPreset::FatTree {
        spec: FatTreeSpec::gbe_into_tengbe(4, 16, 2),
        payload: 8948,
        count: 1500,
    };
    let r = run_grid(&preset, 1, SEED);
    (r.events, r.payload_bytes)
}

/// Run every workload as one sweep on `threads` workers and render the
/// counts document. Each workload keeps its own pinned seed, so the
/// scenario seeds go unused. The shard argument is ignored: the fabric
/// workload pins one shard.
pub fn counts(_shards: usize, threads: usize) -> Vec<String> {
    let grid = scenarios(SEED, WORKLOADS, |(name, _)| name.to_string());
    let results = SweepRunner::new(threads)
        .run(&grid, |sc| (sc.input.1)())
        .expect("counts workload panicked");
    let mut doc = String::new();
    for (sc, (events, sim_bytes)) in grid.iter().zip(results) {
        let _ = writeln!(
            doc,
            "{{\"name\":\"{}\",\"events\":{events},\"sim_bytes\":{sim_bytes}}}",
            sc.label
        );
    }
    vec![doc]
}
