//! The `grid` experiment family: fabric-scale runs executed as sharded
//! parallel simulations.
//!
//! Two fabrics from the "networks of workstations, clusters, and grids"
//! side of the paper's title:
//!
//! * **fat-tree** — racks of GbE workstations aggregating through leaf
//!   switches into 10GbE spine hosts ([`tengig_net::FatTreeSpec`]),
//! * **torus** — an APENet-style 3D torus of nearest-neighbor exchanges
//!   ([`tengig_net::TorusSpec`]).
//!
//! Every run goes through [`build`] → [`Grid::run`] → [`read`] (or
//! [`run_grid`], the three in one), which executes the world as
//! `shards` conservatively synchronized replicas (see
//! [`crate::lab::grid`] and [`tengig_sim::run_sharded`]); the fabric's
//! [`lookahead`](tengig_net::FatTreeSpec::lookahead) — the minimum
//! cross-shard path base latency — is the synchronization window. The
//! merged result is a pure function of `(preset, seed)`: **shard count
//! must never change a byte of the report**, which `tengig-check grid`
//! and the CI shard matrix enforce against `goldens/grid.jsonl`.
//!
//! Shard count and sweep threads are orthogonal: the sweep runner
//! parallelizes across scenarios while each scenario parallelizes across
//! shards, and neither axis is allowed to leak into the output.

use crate::config::{HostConfig, LadderRung};
use crate::lab::{App, Ev, Grid, Lab};
use crate::report::{Json, MetricsSidecar, SweepReport};
use crate::sweep::{scenarios, SweepRunner};
use tengig_ethernet::Mtu;
use tengig_net::{FatTreeSpec, TorusSpec};
use tengig_nic::NicSpec;
use tengig_sim::{rate_of, EngineCounters, Hist, Nanos, ObsConfig, SimRng, Timelines};
use tengig_tcp::Sysctls;
use tengig_tools::{NttcpReceiver, NttcpSender};

/// One grid workload: a fabric plus the per-flow NTTCP transfer size.
#[derive(Debug, Clone, Copy)]
pub enum GridPreset {
    /// GbE workstations aggregating into 10GbE spine hosts.
    FatTree {
        /// The fabric.
        spec: FatTreeSpec,
        /// NTTCP payload per write.
        payload: u64,
        /// Writes per workstation.
        count: u64,
    },
    /// APENet-style nearest-neighbor exchange on a 3D torus.
    Torus {
        /// The fabric.
        spec: TorusSpec,
        /// NTTCP payload per write.
        payload: u64,
        /// Writes per node.
        count: u64,
    },
}

impl GridPreset {
    /// The canonical fat-tree points of the pinned grid sweep.
    pub fn fat_tree(leaves: usize, hosts_per_leaf: usize, spines: usize) -> Self {
        GridPreset::FatTree {
            spec: FatTreeSpec::gbe_into_tengbe(leaves, hosts_per_leaf, spines),
            payload: 8948,
            count: 30,
        }
    }

    /// The canonical APENet-style torus point of the pinned grid sweep.
    pub fn torus(dims: [usize; 3]) -> Self {
        GridPreset::Torus {
            spec: TorusSpec::apenet(dims),
            payload: 8948,
            count: 30,
        }
    }

    /// Scenario label for reports.
    pub fn label(&self) -> String {
        match self {
            GridPreset::FatTree { spec, .. } => format!(
                "fat_tree/{}x{}into{}",
                spec.leaves, spec.hosts_per_leaf, spec.spines
            ),
            GridPreset::Torus { spec, .. } => {
                format!("torus/{}x{}x{}", spec.dims[0], spec.dims[1], spec.dims[2])
            }
        }
    }

    /// The conservative synchronization window this fabric affords: the
    /// minimum base latency over every cross-shard path.
    pub fn lookahead(&self) -> Nanos {
        match self {
            GridPreset::FatTree { spec, .. } => spec.lookahead(),
            GridPreset::Torus { spec, .. } => spec.lookahead(),
        }
    }

    /// Flow count of the assembled world.
    pub fn flows(&self) -> usize {
        match self {
            GridPreset::FatTree { spec, .. } => spec.workstations(),
            GridPreset::Torus { spec, .. } => spec.nodes(),
        }
    }
}

/// The GbE workstation config for fat-tree leaves (same class as the
/// multiflow experiment's peers).
pub(crate) fn workstation() -> HostConfig {
    HostConfig {
        hw: tengig_hw::HostSpec::gbe_workstation(),
        nic: NicSpec::e1000_gbe(),
        sysctls: Sysctls::linux24_defaults()
            .with_buffers(256 * 1024)
            .with_mtu(Mtu::JUMBO_9000),
    }
}

/// The 10GbE host config for spines and torus nodes: the paper's tuned
/// PE2650.
pub(crate) fn tengbe() -> HostConfig {
    LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000)
}

/// Assemble the preset's world: the full topology, built identically on
/// every shard (same seed, same fork labels, same index order).
///
/// Links are per-flow private directional paths, which satisfies the
/// grid partition-safety rule by construction.
fn world(preset: &GridPreset, seed: u64) -> Lab {
    let mut lab = Lab::new();
    let mut rng = SimRng::seeded(seed);
    match preset {
        GridPreset::FatTree {
            spec,
            payload,
            count,
        } => {
            let ws: Vec<usize> = (0..spec.workstations())
                .map(|_| lab.add_host(workstation()))
                .collect();
            let spines: Vec<usize> = (0..spec.spines).map(|_| lab.add_host(tengbe())).collect();
            let up = spec.up_path();
            let down = spec.down_path();
            for (w, &ws_h) in ws.iter().enumerate() {
                let l_up = lab.add_link(&up, rng.fork(&format!("up-{w}")));
                let l_down = lab.add_link(&down, rng.fork(&format!("down-{w}")));
                lab.add_flow(
                    ws_h,
                    spines[spec.spine_of(w)],
                    vec![l_up],
                    vec![l_down],
                    App::Nttcp {
                        tx: NttcpSender::new(*payload, *count),
                        rx: NttcpReceiver::new(payload * count),
                    },
                );
            }
        }
        GridPreset::Torus {
            spec,
            payload,
            count,
        } => {
            let nodes: Vec<usize> = (0..spec.nodes()).map(|_| lab.add_host(tengbe())).collect();
            let path = spec.link_path();
            for (i, &src) in nodes.iter().enumerate() {
                let dst = nodes[spec.plus_x(i)];
                let l_fwd = lab.add_link(&path, rng.fork(&format!("px-{i}")));
                let l_rev = lab.add_link(&path, rng.fork(&format!("px-rev-{i}")));
                lab.add_flow(
                    src,
                    dst,
                    vec![l_fwd],
                    vec![l_rev],
                    App::Nttcp {
                        tx: NttcpSender::new(*payload, *count),
                        rx: NttcpReceiver::new(payload * count),
                    },
                );
            }
        }
    }
    lab
}

/// Build the preset's world as `shards` conservatively synchronized
/// replicas (see [`Grid::build`]), with observability on when `obs` is
/// set. Run it with [`Grid::run`], then [`read`] the result.
pub fn build(preset: &GridPreset, shards: usize, seed: u64, obs: Option<&ObsConfig>) -> Grid {
    Grid::build(shards, preset.lookahead(), seed, obs, None, || {
        world(preset, seed)
    })
}

/// Merged result of one grid run. Every field is shard-count-invariant —
/// that is the contract `goldens/grid.jsonl` pins.
#[derive(Debug, Clone, Copy)]
pub struct GridResult {
    /// Flow count.
    pub flows: u64,
    /// Total events executed, summed over shards and net of observability
    /// samples. Exactly equal at any shard count, with or without obs:
    /// every other event runs on exactly one shard.
    pub events: u64,
    /// Payload bytes delivered to all receivers.
    pub payload_bytes: u64,
    /// Earliest flow start.
    pub first_start: Nanos,
    /// Latest flow completion.
    pub last_done: Nanos,
    /// Aggregate payload throughput over the active interval, Gb/s.
    pub aggregate_gbps: f64,
}

/// Run one grid preset as `shards` conservatively synchronized shards and
/// merge the result.
pub fn run_grid(preset: &GridPreset, shards: usize, seed: u64) -> GridResult {
    let mut grid = build(preset, shards, seed, None);
    grid.run();
    read(&mut grid).0
}

/// Settle a finished grid run ([`Grid::finish`]) and merge it into the
/// shard-count-invariant [`GridResult`], plus the merged timelines when
/// obs was on. Each per-flow value is read from the shard that owns the
/// host that produced it: start times from the transmitting host's
/// owner, completion times and delivered bytes from the receiving host's
/// owner. (CPU-load figures are deliberately absent: they would read the
/// *other* endpoint's replica, which is stale by design in grid mode.)
pub fn read(grid: &mut Grid) -> (GridResult, Option<Timelines>) {
    let (events, timelines) = grid.finish();
    let mut payload_bytes = 0u64;
    let mut first_start: Option<Nanos> = None;
    let mut last_done: Option<Nanos> = None;
    let flows = grid.flows();
    for f in 0..flows {
        let rx = grid.rx(f);
        let t_start = grid.tx(f).meas.t_start;
        let t_done = rx.meas.t_done;
        let t_start = t_start.expect("flow never started on its owning shard");
        let t_done = t_done.expect("flow never finished on its owning shard");
        first_start = Some(first_start.map_or(t_start, |t| t.min(t_start)));
        last_done = Some(last_done.map_or(t_done, |t| t.max(t_done)));
        payload_bytes += rx.app.received();
    }
    let first_start = first_start.expect("grid presets always carry flows");
    let last_done = last_done.expect("grid presets always carry flows");
    let result = GridResult {
        flows: flows as u64,
        events,
        payload_bytes,
        first_start,
        last_done,
        aggregate_gbps: rate_of(payload_bytes, last_done - first_start).gbps(),
    };
    (result, timelines)
}

/// The gated self-profile of one finished grid run (see `DESIGN.md`
/// §16): one JSONL line of the preset's `label` and `seed` plus
/// shard-count- and thread-invariant merges only (per-kind fired counts,
/// executed total, engine verb counters, the rx-interrupt batch
/// histogram, and the retired, always-empty ingress-drain batch
/// histogram), so it is byte-identical across shard counts and sweep
/// threads.
pub fn profile(label: &str, seed: u64, grid: &Grid) -> String {
    let mut fired = [0u64; Ev::KINDS];
    let mut engine = EngineCounters::default();
    let mut rx_batch = Hist::new();
    let mut executed = 0u64;
    for s in grid.shards() {
        let p = s.lab.prof();
        for (t, f) in fired.iter_mut().zip(&p.fired) {
            *t += f;
        }
        engine.merge(&s.eng.prof_counters());
        rx_batch.merge(&p.rx_batch);
        executed += s.eng.executed();
    }
    let fired_obj = Json::Object(
        Ev::NAMES
            .iter()
            .zip(&fired)
            .map(|(n, &c)| (n.to_string(), Json::U64(c)))
            .collect(),
    );
    let engine_obj = Json::Object(vec![
        ("sched_events".to_string(), Json::U64(engine.sched_events)),
        ("sched_timers".to_string(), Json::U64(engine.sched_timers)),
        ("sched_front".to_string(), Json::U64(engine.sched_front)),
    ]);
    // `drain_batch` is retired with the ingress channel and always empty
    // (see `GridRt::drain_batch`); it keeps the line's field set.
    format!(
        "{{\"prof\":\"sim\",\"preset\":\"{label}\",\"seed\":{seed},\"executed\":{executed},\
         \"fired\":{fired_obj},\"engine\":{engine_obj},\"rx_batch\":{},\"drain_batch\":{}}}\n",
        rx_batch.render(),
        Hist::new().render(),
    )
}

/// The pinned grid sweep: two fat-tree points and one torus point, sized
/// so the whole sweep stays CI-cheap while still crossing every shard
/// boundary (host ownership is round-robin, so with more than one shard
/// every flow's data and ACK paths are cross-shard).
pub fn standard_presets() -> Vec<GridPreset> {
    vec![
        GridPreset::fat_tree(2, 2, 1),
        GridPreset::fat_tree(2, 4, 2),
        GridPreset::torus([2, 2, 2]),
    ]
}

/// Sweep the grid presets on the deterministic [`SweepRunner`] with each
/// scenario executed as `shards` shards. Returns per-point results, the
/// machine-readable report whose JSONL bytes `goldens/grid.jsonl` pins,
/// and the gated profiling sidecar — one [`profile`] line per scenario,
/// read after the run from counters that are always on — whose bytes
/// `goldens/prof_throughput.jsonl` pins. Both are pinned across shard
/// counts {1, 2, 4} and sweep thread counts {1, 4}.
pub fn grid_sweep_report(
    presets: &[GridPreset],
    shards: usize,
    master_seed: u64,
    runner: SweepRunner,
) -> (Vec<GridResult>, SweepReport, MetricsSidecar) {
    let grid = scenarios(master_seed, presets.iter().copied(), |p| p.label());
    let runs = runner
        .run(&grid, |sc| {
            let mut world = build(&sc.input, shards, sc.seed, None);
            world.run();
            let result = read(&mut world).0;
            (result, profile(&sc.label, sc.seed, &world))
        })
        .expect("grid sweep scenario panicked");
    let mut report = SweepReport::new("grid/fabric", master_seed);
    let mut gated = MetricsSidecar::new("grid/prof");
    let mut results = Vec::with_capacity(runs.len());
    for (sc, (r, sim)) in grid.iter().zip(runs) {
        report.push_row(
            sc.index,
            sc.label.clone(),
            sc.seed,
            vec![
                ("flows".to_string(), Json::U64(r.flows)),
                ("events".to_string(), Json::U64(r.events)),
                ("payload_bytes".to_string(), Json::U64(r.payload_bytes)),
                (
                    "first_start_ns".to_string(),
                    Json::U64(r.first_start.as_nanos()),
                ),
                (
                    "last_done_ns".to_string(),
                    Json::U64(r.last_done.as_nanos()),
                ),
                ("aggregate_gbps".to_string(), Json::F64(r.aggregate_gbps)),
            ],
        );
        gated.push(sc.index, sc.label.clone(), sim);
        results.push(r);
    }
    (results, report, gated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_grid_completes_and_matches_across_shard_counts() {
        let preset = GridPreset::fat_tree(2, 2, 1);
        let one = run_grid(&preset, 1, 7);
        assert_eq!(one.flows, 4);
        assert!(one.payload_bytes >= 4 * 8948 * 30);
        assert!(one.aggregate_gbps > 0.5, "gbps {}", one.aggregate_gbps);
        let two = run_grid(&preset, 2, 7);
        assert_eq!(one.events, two.events);
        assert_eq!(one.last_done, two.last_done);
        assert_eq!(one.first_start, two.first_start);
        assert_eq!(one.payload_bytes, two.payload_bytes);
    }

    #[test]
    fn torus_grid_completes() {
        let preset = GridPreset::torus([2, 2, 1]);
        let r = run_grid(&preset, 2, 11);
        assert_eq!(r.flows, 4);
        assert!(r.last_done > r.first_start);
        assert!(r.aggregate_gbps > 1.0, "gbps {}", r.aggregate_gbps);
    }
}
