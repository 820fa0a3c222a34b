//! `tengig-bench` — the wall-clock benchmark harness behind `make bench`.
//!
//! Runs one fixed, pinned-seed workload per experiment family (throughput
//! sweep, multiflow aggregation, WAN record, pktgen), times each with the
//! wall clock, and writes the results as JSON (`BENCH_sim.json`).
//!
//! ```text
//! tengig-bench [--out PATH] [--check BASELINE] [--tolerance FRACTION]
//! ```
//!
//! With `--check`, the run is additionally gated against a baseline
//! report: event/byte counts must match exactly and events/sec must stay
//! within the tolerance band (default ±15%) — in both directions, so an
//! unclaimed speedup fails just as loudly as a regression. Exit status 1
//! signals a gate violation.
//!
//! Every workload is deterministic (fixed seeds, fixed counts), so the
//! only run-to-run variance is the wall clock itself.

use std::time::Instant;
use tengig::experiments::faults::{faults_lab, scaled_wan};
use tengig::experiments::grid::{run_grid, run_grid_prof, GridPreset};
use tengig::experiments::multiflow::{aggregate_seeded, Direction};
use tengig::experiments::serve::{serve_sweep_report, standard_rungs, ServeOutcome};
use tengig::experiments::wan::wan_lab_seeded;
use tengig::experiments::{b2b_lab, run_to_completion};
use tengig::lab::{self, App};
use tengig::LadderRung;
use tengig_bench::gate::{self, BenchReport, FamilyResult, DEFAULT_TOLERANCE};
use tengig_ethernet::Mtu;
use tengig_net::{GilbertElliott, Impairments, WanSpec};
use tengig_sim::{Calendar, EventId, Nanos};
use tengig_tools::{NttcpReceiver, NttcpSender, Pktgen};

/// Master seed for every bench workload (the publication year, as used by
/// the paper sweeps).
const SEED: u64 = 2003;

/// Packet count per throughput-sweep point. Chosen so the whole family
/// runs in seconds while still executing millions of events.
const SWEEP_COUNT: u64 = 200_000;

/// pktgen packet count.
const PKTGEN_COUNT: u64 = 5_000_000;

fn time<F: FnOnce() -> (u64, u64)>(name: &str, work: F) -> FamilyResult {
    eprintln!("bench: running {name} ...");
    let t0 = Instant::now();
    let (events, sim_bytes) = work();
    let wall_secs = t0.elapsed().as_secs_f64();
    FamilyResult {
        name: name.to_string(),
        events,
        sim_bytes,
        wall_secs,
    }
}

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
/// metrics timelines sampled every 100 µs plus detail tracing 1-in-16.
/// Exists to price the obs tax — its events/sec is gated like any other
/// family, and the workload bytes match `throughput_sweep` exactly.
fn throughput_sweep_obs() -> (u64, u64) {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let obs = tengig_sim::ObsConfig {
        sample_interval: Nanos::from_micros(100),
        ring_capacity: 256,
        sample_every: 16,
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

/// §4 Internet2 Land Speed Record: a windowed single-stream WAN run.
fn wan_record() -> (u64, u64) {
    let (mut lab, mut eng) = wan_lab_seeded(&WanSpec::record_run(), None, SEED);
    lab::kick(&mut lab, &mut eng);
    let warmup = Nanos::from_secs(3);
    let window = Nanos::from_secs(5);
    eng.advance_to(&mut lab, warmup);
    let received = |lab: &lab::Lab| match &lab.flows[0].app {
        App::Nttcp { rx, .. } => rx.received,
        _ => 0,
    };
    let b0 = received(&lab);
    eng.advance_to(&mut lab, warmup + window);
    lab::check_sanitizer(&lab, &mut eng, false);
    (eng.executed(), received(&lab) - b0)
}

/// The windowed WAN run again, but with Gilbert–Elliott burst loss on
/// the data path: prices the impairment tax next to the clean
/// `wan_record` family above. The control is `wan_record` itself —
/// `Impairments::none()` short-circuits before any per-frame RNG draw,
/// so that family's event count must not move when the impairment layer
/// changes (the gate's exact event-count match enforces it).
fn wan_burst_loss() -> (u64, u64) {
    let mut wan = scaled_wan(Nanos::from_millis(20), 64 << 20);
    wan.impair = Impairments::none().with_burst(GilbertElliott::bursty(3e-3, 8.0));
    let (mut lab, mut eng) = faults_lab(&wan, Some(256 << 10), SEED);
    lab::kick(&mut lab, &mut eng);
    let warmup = Nanos::from_secs(2);
    let window = Nanos::from_secs(5);
    eng.advance_to(&mut lab, warmup);
    let received = |lab: &lab::Lab| match &lab.flows[0].app {
        App::Nttcp { rx, .. } => rx.received,
        _ => 0,
    };
    let b0 = received(&lab);
    eng.advance_to(&mut lab, warmup + window);
    lab::check_sanitizer(&lab, &mut eng, false);
    (eng.executed(), received(&lab) - b0)
}

/// Iterations of the raw arm/cancel churn benchmark. Sized so the
/// *wheel* variant still runs long enough for a stable wall-clock read.
const CHURN_ITERS: u64 = 8_000_000;

/// The timer-dominated hot path, isolated on a raw `Calendar`: each
/// iteration pops one near event (the "segment"), cancels the previous
/// retransmission timer (the "ACK" killed it) and arms a fresh one
/// 200 ms out — exactly the arm-then-cancel churn TCP generates per
/// acknowledged segment, where virtually no timer ever fires. The
/// `_slab` variant routes timers through the binary heap (`schedule`),
/// the `_wheel` variant through the timing wheel (`schedule_timer`); the
/// pop stream is identical by construction (the wheel's ordering
/// contract), so the family pair prices the wheel lane directly: heap
/// churn drags ~200 ms of tombstones through every sift, the wheel
/// tombstones them in buckets and reaps in bulk.
fn timer_churn(wheel: bool) -> (u64, u64) {
    let mut cal: Calendar<u64> = Calendar::new();
    let mut pending: Option<EventId> = None;
    let mut popped = 0u64;
    for i in 0..CHURN_ITERS {
        if let Some(id) = pending.take() {
            cal.cancel(id);
        }
        let rto = cal.now() + Nanos::from_millis(200);
        pending = Some(if wheel {
            cal.schedule_timer(rto, i)
        } else {
            cal.schedule(rto, i)
        });
        cal.schedule(cal.now() + Nanos::from_micros(1), i);
        cal.pop();
        popped += 1;
    }
    while cal.pop().is_some() {
        popped += 1;
    }
    (popped, 0)
}

/// The pinned fat-tree fabric of the `grid_fabric` family pair: 64 GbE
/// workstations in 4 racks feeding 2 10GbE spines, ~1.3M events.
fn grid_fabric_preset() -> GridPreset {
    GridPreset::FatTree {
        spec: tengig_net::FatTreeSpec::gbe_into_tengbe(4, 16, 2),
        payload: 8948,
        count: 1500,
    }
}

/// Sharded grid execution at a given shard count, on the pinned fat-tree
/// scenario. The family pair (`grid_fabric_1shard` / `grid_fabric_4shard`)
/// prices conservative-window parallel execution: events/sec across the
/// pair is the scaling figure, and because merged event counts are
/// shard-count-invariant by contract, the gate's exact event-count match
/// between the two families doubles as a determinism check inside the
/// bench itself. The speedup this pair can show is bounded by the
/// runner's core count — on a single-core machine the 4-shard figure
/// prices pure synchronization overhead instead.
fn grid_fabric(shards: usize) -> (u64, u64) {
    let r = run_grid(&grid_fabric_preset(), shards, SEED);
    (r.events, r.payload_bytes)
}

/// The `grid_fabric_4shard` workload again with the full self-profiling
/// plane collected — deterministic counters, batch histograms, and the
/// wall-time barrier accounting. Prices the enabled profiler tax: the
/// gate's exact event-count match against `grid_fabric_4shard` proves
/// profiling changes no event, and the events/sec delta between the two
/// families is the tax itself (target ≤5%).
fn grid_prof() -> (u64, u64) {
    let (r, _prof) = run_grid_prof(&grid_fabric_preset(), 4, SEED);
    (r.events, r.payload_bytes)
}

/// The open-loop serve family: the pinned four-rung load ladder (seeded
/// Poisson arrivals, bounded-Pareto mice/elephants, FCT percentiles)
/// plus the four-rung disk-to-disk striping ladder, exactly the
/// `tengig-check serve` sweep at one shard. Events are the workload figure the
/// golden gates on (obs sampling netted out), so the gate's exact
/// event-count match doubles as a determinism check here too.
fn serve_openloop() -> (u64, u64) {
    let rungs = standard_rungs();
    let (outcomes, _, _) = serve_sweep_report(&rungs, 1, SEED, tengig::SweepRunner::new(4));
    let mut events = 0;
    let mut bytes = 0;
    for o in &outcomes {
        let (e, b) = match o {
            ServeOutcome::Load(r) => (r.events, r.payload_bytes),
            ServeOutcome::Stripe(r) => (r.events, r.payload_bytes),
        };
        events += e;
        bytes += b;
    }
    (events, bytes)
}

/// §3.5.2 packet generator: single-copy TCP-bypass blast.
fn pktgen() -> (u64, u64) {
    let cfg = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
    let payload = 8132u64;
    let (mut lab, mut eng) = b2b_lab(cfg, App::Pktgen(Pktgen::new(payload, PKTGEN_COUNT)), SEED);
    run_to_completion(&mut lab, &mut eng);
    (eng.executed(), payload * PKTGEN_COUNT)
}

struct Args {
    out: String,
    check: Option<String>,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_sim.json".to_string(),
        check: None,
        tolerance: DEFAULT_TOLERANCE,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match flag.as_str() {
            "--out" => args.out = take("--out")?,
            "--check" => args.check = Some(take("--check")?),
            "--tolerance" => {
                args.tolerance = take("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tengig-bench: {e}");
            eprintln!("usage: tengig-bench [--out PATH] [--check BASELINE] [--tolerance FRAC]");
            std::process::exit(2);
        }
    };

    let report = BenchReport {
        families: vec![
            time("throughput_sweep", throughput_sweep),
            time("throughput_sweep_obs", throughput_sweep_obs),
            time("multiflow", multiflow),
            time("wan_record", wan_record),
            time("wan_burst_loss", wan_burst_loss),
            time("pktgen", pktgen),
            time("timer_churn_slab", || timer_churn(false)),
            time("timer_churn_wheel", || timer_churn(true)),
            time("grid_fabric_1shard", || grid_fabric(1)),
            time("grid_fabric_4shard", || grid_fabric(4)),
            time("grid_prof", grid_prof),
            time("serve_openloop", serve_openloop),
        ],
        peak_rss_kb: gate::peak_rss_kb(),
    };

    print!("{}", gate::summary(&report));
    if let Err(e) = std::fs::write(&args.out, report.to_json()) {
        eprintln!("tengig-bench: writing {}: {e}", args.out);
        std::process::exit(2);
    }
    eprintln!("bench: wrote {}", args.out);

    if let Some(path) = args.check {
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|s| BenchReport::from_json(&s))
            .unwrap_or_else(|e| {
                eprintln!("tengig-bench: baseline: {e}");
                std::process::exit(2);
            });
        let violations = gate::compare(&baseline, &report, args.tolerance);
        if violations.is_empty() {
            println!(
                "bench gate: PASS (all families within ±{:.0}% of {path})",
                args.tolerance * 100.0
            );
        } else {
            println!("bench gate: FAIL against {path}");
            for v in &violations {
                println!("  - {v}");
            }
            std::process::exit(1);
        }
    }
}
