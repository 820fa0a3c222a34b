//! The `serve` experiment family: open-loop traffic workloads and the
//! disk-to-disk pipeline stage.
//!
//! Two ladders probe the "networks of workstations … and grids" side of
//! the paper from the *service* angle:
//!
//! * **load ladder** — a pool of GbE workstation clients launches
//!   hundreds of short flows at a tuned 10GbE server under a seeded
//!   open-loop arrival process ([`tengig_sim::build_schedule`]: Poisson
//!   gaps, bounded-Pareto mice/elephant sizes). The rung parameter is the
//!   offered load; the measurement is the flow-completion-time tail
//!   (p50/p99/p999 via [`FctStats`]) plus offered-vs-achieved goodput —
//!   the tail degrades as the *hosts* saturate, never the wires, which is
//!   the paper's thesis restated as an SLO curve.
//! * **striping ladder** — the Kukol–Gray regime: one host pair moves a
//!   fixed volume `disk→NIC→WAN→NIC→disk` ([`App::DiskPipe`] over
//!   [`tengig_hw::DiskModel`] spindle banks) with the stream count rising
//!   across rungs. Aggregate pipeline goodput scales with streams until
//!   every spindle is busy (disk-bound) or the path fills (wire-bound).
//!
//! Every run executes through the same sharded machinery as the `grid`
//! family — conservatively synchronized replicas with host-round-robin
//! ownership — and the sweep report is a pure function of
//! `(preset, master seed)`: **neither shard count nor sweep thread count
//! may change a byte of `goldens/serve.jsonl`**, which `tengig-check
//! serve` and the CI shard matrix enforce.
//!
//! The arrival schedule is drawn entirely at build time from a forked
//! [`SimRng`] (the run itself replays `Ev::StartFlow` at the precomputed
//! instants via [`crate::lab::kick_at`]), so the workload plane costs
//! zero RNG draws and zero event variants in every family that does not
//! opt in — the existing goldens cannot drift by construction.

use super::grid::{tengbe, workstation};
use crate::lab::{App, DiskPipe, Grid, Lab};
use crate::report::{Json, MetricsSidecar, SweepReport};
use crate::sweep::{scenarios, SweepRunner};
use tengig_hw::{DiskModel, DiskSpec};
use tengig_net::{Hop, Path};
use tengig_sim::{
    build_schedule, rate_of, ArrivalProcess, Bandwidth, BoundedPareto, FctStats, FlowPlan,
    MetricKind, Nanos, ObsConfig, Scope, SimRng, SizeMix, Timelines, WorkloadSpec,
};
use tengig_tools::{NttcpReceiver, NttcpSender};

/// Application write size for every serve flow (jumbo-MSS-sized, as in
/// the grid family); sampled flow sizes are rounded up to whole writes.
const PAYLOAD: u64 = 8948;

/// GbE workstation clients feeding the load-ladder server.
const LOAD_CLIENTS: usize = 4;

/// Nominal serve-pool capacity the load rungs are scaled against, Gb/s —
/// the empirical ceiling of four GbE workstation senders into one tuned
/// PE2650 (host-bound, well under the wire sum). A rung's offered load is
/// `rho ×` this.
const LOAD_CAPACITY_GBPS: f64 = 2.5;

/// Disk-request granularity of a striping stream, in socket writes
/// (117 × 8948 ≈ 1 MiB chunks).
const STRIPE_CHUNK_WRITES: u64 = 117;

/// Socket writes per striping stream (468 × 8948 ≈ 4.2 MiB — four whole
/// disk chunks, a few hundred milliseconds of spindle time).
const STRIPE_COUNT: u64 = 468;

/// The load-ladder flow-size mix: mice-heavy bounded-Pareto, trimmed so
/// a CI rung stays cheap while the tail still carries elephants two
/// orders of magnitude above the median.
fn serve_mix() -> SizeMix {
    SizeMix::new(
        0.97,
        BoundedPareto::new(1.2, 2 << 10, 32 << 10),
        BoundedPareto::new(1.1, 256 << 10, 4 << 20),
    )
}

/// One open-loop load rung.
#[derive(Debug, Clone, Copy)]
pub struct LoadRung {
    /// Offered load as a fraction of `LOAD_CAPACITY_GBPS`, in permille
    /// (1200 = 20% past nominal saturation).
    pub rho_permille: u64,
    /// Flows launched by the arrival process.
    pub flows: usize,
}

/// One disk-striping rung.
#[derive(Debug, Clone, Copy)]
pub struct StripeRung {
    /// Concurrent `disk→NIC→WAN→NIC→disk` streams.
    pub streams: usize,
    /// Spindles per host disk bank (streams map round-robin).
    pub spindles: usize,
}

/// One serve workload: a load rung or a striping rung.
#[derive(Debug, Clone, Copy)]
pub enum ServePreset {
    /// Open-loop arrivals into the client→server pool.
    Load(LoadRung),
    /// Multi-stream disk-to-disk pipeline over the WAN hop.
    Stripe(StripeRung),
}

impl ServePreset {
    /// Scenario label for reports.
    pub fn label(&self) -> String {
        match self {
            ServePreset::Load(r) => format!("load/rho{:04}", r.rho_permille),
            ServePreset::Stripe(r) => format!("stripe/{}x{}sp", r.streams, r.spindles),
        }
    }

    /// The conservative synchronization window this rung affords: the
    /// base latency of its (only) cross-shard path.
    pub fn lookahead(&self) -> Nanos {
        match self {
            ServePreset::Load(_) => load_path("serve-up").base_latency(),
            ServePreset::Stripe(_) => stripe_wan().base_latency(),
        }
    }
}

/// The pinned serve sweep: a four-rung load ladder climbing through
/// nominal saturation, then a four-rung striping ladder on four-spindle
/// banks (goodput scales 1→2→4 streams, then the disk binds at 8).
pub fn standard_rungs() -> Vec<ServePreset> {
    vec![
        ServePreset::Load(LoadRung {
            rho_permille: 250,
            flows: 400,
        }),
        ServePreset::Load(LoadRung {
            rho_permille: 500,
            flows: 400,
        }),
        ServePreset::Load(LoadRung {
            rho_permille: 850,
            flows: 400,
        }),
        ServePreset::Load(LoadRung {
            rho_permille: 1200,
            flows: 400,
        }),
        ServePreset::Stripe(StripeRung {
            streams: 1,
            spindles: 4,
        }),
        ServePreset::Stripe(StripeRung {
            streams: 2,
            spindles: 4,
        }),
        ServePreset::Stripe(StripeRung {
            streams: 4,
            spindles: 4,
        }),
        ServePreset::Stripe(StripeRung {
            streams: 8,
            spindles: 4,
        }),
    ]
}

/// The client→server access path: a GbE uplink through the pool switch
/// (store-and-forward fixed latency, bounded egress buffer). Per-flow
/// private, so partition safety holds by construction and contention
/// lives where the paper puts it — in the hosts.
fn load_path(name: &'static str) -> Path {
    Path {
        hops: vec![
            Hop::wire(name, Bandwidth::from_gbps(1), Nanos::from_micros(10))
                .with_fixed(Nanos::from_nanos(5_850))
                .with_buffer(512 << 10),
        ],
    }
}

/// The striping ladder's metro WAN hop: 10GbE, 100 µs one-way, shared by
/// every stream of a rung (the two hosts of the pair own the two
/// directions, so a shared link still satisfies the partition rule).
fn stripe_wan() -> Path {
    Path {
        hops: vec![Hop::wire(
            "serve-wan",
            Bandwidth::from_gbps(10),
            Nanos::from_micros(100),
        )
        .with_fixed(Nanos::from_micros(10))
        .with_buffer(16 << 20)],
    }
}

/// Observability configuration for serve runs: 2 ms sampling (dozens of
/// samples per rung). Always on,
/// so the per-host CPU-saturation series comes from the same run the
/// golden gates (the sampling events themselves are netted out of the
/// reported event counts — see [`run_serve`]).
fn serve_obs() -> ObsConfig {
    ObsConfig {
        sample_interval: Nanos::from_millis(2),
        ..ObsConfig::default()
    }
}

/// Socket writes needed to carry a sampled flow size (rounded up to
/// whole [`PAYLOAD`] writes; a zero-byte sample still opens one write).
fn writes_for(bytes: u64) -> u64 {
    bytes.div_ceil(PAYLOAD).max(1)
}

/// The open-loop workload of one load rung, and its pre-drawn schedule.
/// All randomness is consumed here, before any engine exists.
fn load_schedule(r: &LoadRung, seed: u64) -> (WorkloadSpec, Vec<FlowPlan>) {
    let sizes = serve_mix();
    let mean_bits = sizes.mean() * 8.0;
    let rate_bps = (r.rho_permille as f64 / 1000.0) * LOAD_CAPACITY_GBPS * 1e9;
    let spec = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson {
            mean_gap: Nanos::from_secs_f64(mean_bits / rate_bps),
        },
        sizes,
        flows: r.flows as u64,
    };
    let mut rng = SimRng::seeded(seed);
    let plans = build_schedule(&spec, &mut rng.fork("serve-load"));
    (spec, plans)
}

/// Assemble one serve rung's world, identically on every shard (the
/// same discipline as the `grid` family's worlds).
fn world(preset: &ServePreset, plans: &[FlowPlan], seed: u64) -> Lab {
    let mut lab = Lab::new();
    let mut rng = SimRng::seeded(seed);
    match preset {
        ServePreset::Load(r) => {
            let clients: Vec<usize> = (0..LOAD_CLIENTS)
                .map(|_| lab.add_host(workstation()))
                .collect();
            let server = lab.add_host(tengbe());
            let up = load_path("serve-up");
            let down = load_path("serve-down");
            debug_assert_eq!(plans.len(), r.flows);
            for (f, plan) in plans.iter().enumerate() {
                let l_up = lab.add_link(&up, rng.fork(&format!("serve-up-{f}")));
                let l_down = lab.add_link(&down, rng.fork(&format!("serve-down-{f}")));
                let count = writes_for(plan.bytes);
                lab.add_flow(
                    clients[f % LOAD_CLIENTS],
                    server,
                    vec![l_up],
                    vec![l_down],
                    App::Nttcp {
                        tx: NttcpSender::new(PAYLOAD, count),
                        rx: NttcpReceiver::new(PAYLOAD * count),
                    },
                );
            }
        }
        ServePreset::Stripe(r) => {
            let a = lab.add_host(tengbe());
            let b = lab.add_host(tengbe());
            lab.attach_disk(a, DiskModel::new(DiskSpec::scsi_2003(), r.spindles));
            lab.attach_disk(b, DiskModel::new(DiskSpec::scsi_2003(), r.spindles));
            let wan = stripe_wan();
            let l_fwd = lab.add_link(&wan, rng.fork("serve-wan-fwd"));
            let l_rev = lab.add_link(&wan, rng.fork("serve-wan-rev"));
            for s in 0..r.streams {
                lab.add_flow(
                    a,
                    b,
                    vec![l_fwd],
                    vec![l_rev],
                    App::DiskPipe(DiskPipe::new(PAYLOAD, STRIPE_COUNT, STRIPE_CHUNK_WRITES, s)),
                );
            }
        }
    }
    lab
}

/// Merged result of one load rung. Every field is shard-count-invariant.
#[derive(Debug, Clone, Copy)]
pub struct LoadResult {
    /// Flows launched (and completed).
    pub flows: u64,
    /// Total events executed, summed over shards.
    pub events: u64,
    /// Payload bytes delivered to the server.
    pub payload_bytes: u64,
    /// Offered load of the arrival process, Gb/s.
    pub offered_gbps: f64,
    /// Achieved goodput over the first-arrival→last-completion window,
    /// Gb/s.
    pub achieved_gbps: f64,
    /// Flow-completion-time p50 (arrival → delivery).
    pub fct_p50: Nanos,
    /// Flow-completion-time p99.
    pub fct_p99: Nanos,
    /// Flow-completion-time p99.9.
    pub fct_p999: Nanos,
    /// Server-host hottest-CPU busy total — the saturation signal.
    pub srv_cpu_busy: Nanos,
    /// Latest flow completion.
    pub last_done: Nanos,
}

/// Merged result of one striping rung. Every field is
/// shard-count-invariant.
#[derive(Debug, Clone, Copy)]
pub struct StripeResult {
    /// Concurrent streams.
    pub streams: u64,
    /// Total events executed, summed over shards.
    pub events: u64,
    /// Payload bytes delivered end to end.
    pub payload_bytes: u64,
    /// Pipeline goodput over first-start→last-*drain* (the destination
    /// disk's final write completion, not mere delivery), Gb/s.
    pub pipeline_gbps: f64,
    /// Earliest stream start.
    pub first_start: Nanos,
    /// Destination disk's final write completion.
    pub last_drain: Nanos,
    /// Source-host disk read-lane busy total.
    pub disk_read_busy: Nanos,
    /// Destination-host disk write-lane busy total.
    pub disk_write_busy: Nanos,
}

/// Merged result of one serve rung.
#[derive(Debug, Clone, Copy)]
pub enum ServeOutcome {
    /// A load rung's FCT/goodput figures.
    Load(LoadResult),
    /// A striping rung's pipeline figures.
    Stripe(StripeResult),
}

/// Run one serve rung as `shards` conservatively synchronized shards and
/// merge the result plus the shard-count-invariant observability
/// timelines. Load rungs start each flow at its pre-drawn arrival
/// instant; striping rungs use the staggered kick.
pub fn run_serve(preset: &ServePreset, shards: usize, seed: u64) -> (ServeOutcome, Timelines) {
    let schedule = match preset {
        ServePreset::Load(r) => Some(load_schedule(r, seed)),
        ServePreset::Stripe(_) => None,
    };
    let plans = schedule.as_ref().map_or(&[][..], |(_, plans)| plans);
    let arrivals: Option<Vec<Nanos>> = schedule
        .as_ref()
        .map(|(_, plans)| plans.iter().map(|p| p.at).collect());
    let mut grid = Grid::build(
        shards,
        preset.lookahead(),
        seed,
        Some(&serve_obs()),
        arrivals.as_deref(),
        || world(preset, plans, seed),
    );
    grid.run();
    let (events, timelines) = grid.finish();
    let outcome = match &schedule {
        Some((spec, plans)) => ServeOutcome::Load(read_load(&grid, spec, plans, events)),
        None => ServeOutcome::Stripe(read_stripe(&grid, events)),
    };
    let timelines = timelines.expect("obs is always enabled on serve runs");
    (outcome, timelines)
}

/// Read a finished load rung into [`LoadResult`], each value from the
/// shard owning the host that produced it.
fn read_load(grid: &Grid, spec: &WorkloadSpec, plans: &[FlowPlan], events: u64) -> LoadResult {
    let mut fct = FctStats::new();
    let mut payload_bytes = 0u64;
    let mut last_done = Nanos::ZERO;
    let flows = grid.flows();
    for (f, plan) in plans.iter().enumerate().take(flows) {
        let rx = grid.rx(f);
        let t_done = rx.meas.t_done;
        let t_done = t_done.expect("load flow never finished on its owning shard");
        let bytes = rx.app.received();
        fct.record(plan.at, t_done, bytes);
        payload_bytes += bytes;
        last_done = last_done.max(t_done);
    }
    let server = LOAD_CLIENTS;
    LoadResult {
        flows: flows as u64,
        events,
        payload_bytes,
        offered_gbps: spec.offered_bps() / 1e9,
        achieved_gbps: fct.achieved_bps() / 1e9,
        fct_p50: Nanos::from_nanos(fct.fct_permille(500)),
        fct_p99: Nanos::from_nanos(fct.fct_permille(990)),
        fct_p999: Nanos::from_nanos(fct.fct_permille(999)),
        srv_cpu_busy: grid.host(server).hottest_cpu_busy_total(),
        last_done,
    }
}

/// Read a finished striping rung into [`StripeResult`], each value from
/// the shard owning the host that produced it.
fn read_stripe(grid: &Grid, events: u64) -> StripeResult {
    let flows = grid.flows();
    let mut payload_bytes = 0u64;
    let mut first_start: Option<Nanos> = None;
    let mut last_drain = Nanos::ZERO;
    for f in 0..flows {
        let t_start = grid.tx(f).meas.t_start;
        let t_start = t_start.expect("stripe stream never started on its owning shard");
        first_start = Some(first_start.map_or(t_start, |t| t.min(t_start)));
        let app = &grid.rx(f).app;
        payload_bytes += app.received();
        if let App::DiskPipe(dp) = app {
            last_drain = last_drain.max(dp.drain_done());
        }
    }
    let first_start = first_start.expect("stripe rungs always carry streams");
    let [src, dst] = grid.tx(0).host;
    let src_disk = grid.host(src).disk.as_ref();
    let src_disk = src_disk.expect("stripe source host has a disk bank");
    let dst_disk = grid.host(dst).disk.as_ref();
    let dst_disk = dst_disk.expect("stripe destination host has a disk bank");
    StripeResult {
        streams: flows as u64,
        events,
        payload_bytes,
        pipeline_gbps: rate_of(payload_bytes, last_drain.saturating_sub(first_start)).gbps(),
        first_start,
        last_drain,
        disk_read_busy: src_disk.read_busy_total(),
        disk_write_busy: dst_disk.write_busy_total(),
    }
}

/// Render only the per-host CPU-saturation series of a merged timeline —
/// the obs sidecar the serve family ships. (The full timelines carry
/// per-flow TCP series for every launched flow; the sidecar keeps the
/// host saturation signal compact.)
pub fn cpu_series_jsonl(tl: &Timelines) -> String {
    let mut out = Timelines::new(tl.interval);
    for (&(scope, metric), series) in tl.iter() {
        if matches!(scope, Scope::Host { .. }) && metric == MetricKind::CpuBusyNanos {
            for &(t, v) in series.points() {
                out.record(scope, metric, t, v);
            }
        }
    }
    out.to_jsonl()
}

/// Sweep the serve rungs on the deterministic [`SweepRunner`] with each
/// scenario executed as `shards` shards. Returns per-rung outcomes, the
/// machine-readable report whose JSONL bytes `goldens/serve.jsonl` pins
/// across shard counts {1, 2, 4} and sweep thread counts {1, 4}, and the
/// (ungated) per-host CPU-saturation sidecar.
pub fn serve_sweep_report(
    presets: &[ServePreset],
    shards: usize,
    master_seed: u64,
    runner: SweepRunner,
) -> (Vec<ServeOutcome>, SweepReport, MetricsSidecar) {
    let sv = scenarios(master_seed, presets.iter().copied(), |p| p.label());
    let results = runner
        .run(&sv, |sc| run_serve(&sc.input, shards, sc.seed))
        .expect("serve sweep scenario panicked");
    let mut report = SweepReport::new("serve/openloop", master_seed);
    let mut sidecar = MetricsSidecar::new("serve/cpu");
    let mut outcomes = Vec::with_capacity(results.len());
    for (sc, (outcome, tl)) in sv.iter().zip(results) {
        let values = match &outcome {
            ServeOutcome::Load(r) => vec![
                ("flows".to_string(), Json::U64(r.flows)),
                ("events".to_string(), Json::U64(r.events)),
                ("payload_bytes".to_string(), Json::U64(r.payload_bytes)),
                ("offered_gbps".to_string(), Json::F64(r.offered_gbps)),
                ("achieved_gbps".to_string(), Json::F64(r.achieved_gbps)),
                ("fct_p50_ns".to_string(), Json::U64(r.fct_p50.as_nanos())),
                ("fct_p99_ns".to_string(), Json::U64(r.fct_p99.as_nanos())),
                ("fct_p999_ns".to_string(), Json::U64(r.fct_p999.as_nanos())),
                (
                    "srv_cpu_busy_ns".to_string(),
                    Json::U64(r.srv_cpu_busy.as_nanos()),
                ),
            ],
            ServeOutcome::Stripe(r) => vec![
                ("streams".to_string(), Json::U64(r.streams)),
                ("events".to_string(), Json::U64(r.events)),
                ("payload_bytes".to_string(), Json::U64(r.payload_bytes)),
                ("pipeline_gbps".to_string(), Json::F64(r.pipeline_gbps)),
                (
                    "first_start_ns".to_string(),
                    Json::U64(r.first_start.as_nanos()),
                ),
                (
                    "last_drain_ns".to_string(),
                    Json::U64(r.last_drain.as_nanos()),
                ),
                (
                    "disk_read_busy_ns".to_string(),
                    Json::U64(r.disk_read_busy.as_nanos()),
                ),
                (
                    "disk_write_busy_ns".to_string(),
                    Json::U64(r.disk_write_busy.as_nanos()),
                ),
            ],
        };
        report.push_row(sc.index, sc.label.clone(), sc.seed, values);
        sidecar.push(sc.index, sc.label.clone(), cpu_series_jsonl(&tl));
        outcomes.push(outcome);
    }
    (outcomes, report, sidecar)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_rung(rho_permille: u64) -> ServePreset {
        ServePreset::Load(LoadRung {
            rho_permille,
            flows: 120,
        })
    }

    #[test]
    fn load_ladder_fct_tail_worsens_toward_saturation() {
        let rungs = [load_rung(250), load_rung(850), load_rung(1500)];
        let results: Vec<LoadResult> = rungs
            .iter()
            .map(|p| match run_serve(p, 1, 2003).0 {
                ServeOutcome::Load(r) => r,
                ServeOutcome::Stripe(_) => unreachable!("load rung produced a stripe result"),
            })
            .collect();
        for r in &results {
            assert_eq!(r.flows, 120);
            assert!(r.payload_bytes > 0);
            assert!(r.fct_p50 <= r.fct_p99 && r.fct_p99 <= r.fct_p999);
        }
        for pair in results.windows(2) {
            assert!(
                pair[1].fct_p99 >= pair[0].fct_p99,
                "p99 must not improve as offered load rises: {:?} then {:?}",
                pair[0].fct_p99,
                pair[1].fct_p99
            );
        }
        assert!(
            results[2].fct_p99 > results[0].fct_p99,
            "p99 must strictly worsen across the ladder: {:?} vs {:?}",
            results[0].fct_p99,
            results[2].fct_p99
        );
    }

    #[test]
    fn stripe_goodput_rises_until_the_disk_binds() {
        let rungs = [
            ServePreset::Stripe(StripeRung {
                streams: 1,
                spindles: 2,
            }),
            ServePreset::Stripe(StripeRung {
                streams: 2,
                spindles: 2,
            }),
            ServePreset::Stripe(StripeRung {
                streams: 4,
                spindles: 2,
            }),
        ];
        let results: Vec<StripeResult> = rungs
            .iter()
            .map(|p| match run_serve(p, 1, 7).0 {
                ServeOutcome::Stripe(r) => r,
                ServeOutcome::Load(_) => unreachable!("stripe rung produced a load result"),
            })
            .collect();
        assert!(
            results[1].pipeline_gbps > results[0].pipeline_gbps * 1.2,
            "a second spindle must raise goodput: {} then {}",
            results[0].pipeline_gbps,
            results[1].pipeline_gbps
        );
        assert!(
            results[2].pipeline_gbps < results[1].pipeline_gbps * 1.15,
            "both spindles busy: more streams must not scale further: {} then {}",
            results[1].pipeline_gbps,
            results[2].pipeline_gbps
        );
        for r in &results {
            assert!(r.last_drain > r.first_start);
            assert!(r.disk_read_busy > Nanos::ZERO && r.disk_write_busy > Nanos::ZERO);
            assert_eq!(r.payload_bytes, r.streams * STRIPE_COUNT * PAYLOAD);
        }
    }

    #[test]
    fn serve_results_are_shard_count_invariant() {
        for preset in [
            load_rung(900),
            ServePreset::Stripe(StripeRung {
                streams: 2,
                spindles: 2,
            }),
        ] {
            let (one, tl_one) = run_serve(&preset, 1, 11);
            let (two, tl_two) = run_serve(&preset, 2, 11);
            match (one, two) {
                (ServeOutcome::Load(a), ServeOutcome::Load(b)) => {
                    assert_eq!(a.events, b.events);
                    assert_eq!(a.payload_bytes, b.payload_bytes);
                    assert_eq!(a.fct_p99, b.fct_p99);
                    assert_eq!(a.srv_cpu_busy, b.srv_cpu_busy);
                }
                (ServeOutcome::Stripe(a), ServeOutcome::Stripe(b)) => {
                    assert_eq!(a.events, b.events);
                    assert_eq!(a.payload_bytes, b.payload_bytes);
                    assert_eq!(a.last_drain, b.last_drain);
                    assert_eq!(a.disk_read_busy, b.disk_read_busy);
                }
                _ => unreachable!("preset changed family between runs"),
            }
            assert_eq!(
                cpu_series_jsonl(&tl_one),
                cpu_series_jsonl(&tl_two),
                "CPU sidecar must be shard-count-invariant"
            );
        }
    }

    #[test]
    fn serve_report_carries_every_rung_and_cpu_sidecar() {
        let presets = [
            load_rung(500),
            ServePreset::Stripe(StripeRung {
                streams: 1,
                spindles: 1,
            }),
        ];
        let (outcomes, report, sidecar) =
            serve_sweep_report(&presets, 1, 2003, SweepRunner::new(2));
        assert_eq!(outcomes.len(), 2);
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains("\"sweep\":\"serve/openloop\""));
        assert!(jsonl.contains("load/rho0500") && jsonl.contains("stripe/1x1sp"));
        assert_eq!(sidecar.len(), 2);
        assert!(
            sidecar.concatenated().contains("cpu_busy_ns"),
            "sidecar must carry the host CPU-saturation series"
        );
    }
}
