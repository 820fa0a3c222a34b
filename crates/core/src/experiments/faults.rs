//! The `faults` experiment family: TCP under pathological path behavior.
//!
//! The paper's WAN results (Table 1, the 2.38 Gb/s record over 10,037 km)
//! rest on TCP surviving what real transcontinental circuits do — bursty
//! correlated loss, reordering, and outright outages — not just the clean
//! congestion drops of the buffer sweeps. This family drives the
//! [`tengig_net::impair`] subsystem through the scaled WAN lab:
//!
//! * [`burst_sweep_report`] — fixed mean loss, growing Gilbert–Elliott
//!   burst length: goodput degrades monotonically because a burst longer
//!   than the window defeats fast-retransmit/NewReno recovery and forces
//!   RTO backoff (each timeout retransmission probes the *same* bad
//!   state, so long bursts compound).
//! * [`flap_recovery_sweep_report`] — a scripted carrier outage at fixed
//!   sim time, swept over RTT: recovery time after the carrier returns
//!   grows with RTT (the Table 1 trend) because both the RTO estimate and
//!   the window refill are RTT-clocked.
//! * [`chaos_campaign`] — N seeded random impairment cocktails run to
//!   completion with the sanitizer and TCP invariants armed; every
//!   failure carries the exact seed (and CLI line, via `tengig-check
//!   chaos`) that reproduces it.
//!
//! Determinism: every scenario's impairment pattern derives from the
//! sweep's master seed through `SimRng::scenario_seed`, so reports are
//! byte-identical across 1/4 runner threads.

use super::wan::{endless_stream, wan_host};
use super::{pair, run_to_completion, run_window};
use crate::config::HostConfig;
use crate::lab::{self, App, Lab, LabEngine};
use crate::report::{Json, SweepReport};
use crate::sweep::{panic_text, scenarios, SweepRunner};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tengig_net::{GilbertElliott, Hop, ImpairmentSchedule, Impairments, Path, Reorder, WanSpec};
use tengig_nic::NicSpec;
use tengig_sim::{rate_of, Bandwidth, Nanos, SimRng};
use tengig_tcp::Sysctls;
use tengig_tools::{NttcpReceiver, NttcpSender};

/// A [`WanSpec`] scaled to a target round-trip time, keeping the record
/// run's 30/70 Sunnyvale–Chicago/Chicago–Geneva propagation split and its
/// OC-192 → OC-48 rate structure. Fixed per-hop latencies (~130 µs round
/// trip) ride on top, so the realized RTT is `rtt` plus that small tax.
pub fn scaled_wan(rtt: Nanos, bottleneck_buffer: u64) -> WanSpec {
    let one_way = rtt / 2;
    WanSpec {
        prop_svl_chi: Nanos(one_way.as_nanos() * 3 / 10),
        prop_chi_gva: Nanos(one_way.as_nanos() * 7 / 10),
        bottleneck_buffer,
        ..WanSpec::record_run()
    }
}

/// Build the faults lab: the scaled WAN with impairments on the forward
/// (data) direction only — the reverse (ACK) path is built from the clean
/// spec, so measured degradation is attributable to the data-path
/// impairment under study. `tweak` overrides the WAN-tuned sysctls on
/// both hosts; tests use it to pin down which knob caused a behavioral
/// change (e.g. the RTO ceiling) by re-running an experiment with
/// exactly one knob moved.
pub fn faults_lab_tuned(
    wan: &WanSpec,
    buffer: Option<u64>,
    seed: u64,
    tweak: &dyn Fn(Sysctls) -> Sysctls,
) -> (Lab, LabEngine) {
    let mut cfg = wan_host(wan, buffer);
    cfg.sysctls = tweak(cfg.sysctls);
    let clean = WanSpec {
        impair: Impairments::none(),
        ..*wan
    };
    let (fwd, rev) = (wan.forward_path(), clean.reverse_path());
    pair(cfg, cfg, &fwd, &rev, endless_stream(&cfg), seed)
}

/// Result of one impaired WAN run.
#[derive(Debug, Clone, Copy)]
pub struct FaultResult {
    /// Goodput over the measurement window, Gb/s.
    pub gbps: f64,
    /// Sender retransmissions (fast + timeout).
    pub retransmits: u64,
    /// Sender RTO firings.
    pub timeouts: u64,
    /// Sender fast retransmits.
    pub fast_retransmits: u64,
    /// Frames eaten by the impairment layer on the data path.
    pub impair_drops: u64,
    /// All drops on the data path (impairment + congestion).
    pub drops: u64,
}

/// RTT ladder used by the flap-recovery sweep (scaled-down Table 1). The
/// rungs sit above the 200 ms minimum-RTO floor's shadow: below ~100 ms
/// the floor dominates the retransmission clock and flattens the trend.
pub const FLAP_RTTS: [Nanos; 3] = [
    Nanos::from_millis(100),
    Nanos::from_millis(200),
    Nanos::from_millis(400),
];

/// Default burst-length grid (frames) for [`burst_sweep_report`].
///
/// The grid brackets the flow's ~21-frame window (256 KB socket buffer),
/// because that is where burst *shape* changes the recovery mechanism:
///
/// * **8** — bursts are absorbed by the in-flight window; the ACK-clocked
///   refill keeps pumping frames through the chain until it exits, so
///   recovery stays on the duplicate-ACK fast path (a handful of
///   timeouts over a whole run).
/// * **16** — bursts reach the window's size; often too few survivors
///   remain to supply three duplicate ACKs, so recovery falls to the
///   RTO clock (dozens of timeouts).
/// * **32** — bursts outlast the window *and* its refill, and the
///   frame-clocked chain is still bad when the post-RTO retransmission
///   probes it: each dead probe doubles the backoff, and the flow
///   eventually wedges for the rest of the run.
///
/// Grids far below the window (1 → 4) would show the *opposite* trend:
/// at fixed mean loss, clumping losses into fewer events is cheaper for
/// AIMD as long as each event stays dup-ACK-recoverable (the Mathis
/// √(1/p_event) effect). Grids far above (64+) invert again because the
/// first wedge censors the run and bigger bursts are rarer. The
/// interesting — and monotone — regime is the window crossing.
pub const BURST_LENGTHS: [f64; 3] = [8.0, 16.0, 32.0];

/// Sweep Gilbert–Elliott burst length at fixed mean loss on a 20 ms-RTT
/// scaled WAN and report goodput per point.
///
/// The socket buffer is held small (256 KB ≈ 21 jumbo frames of window)
/// so the flow never congests the bottleneck: every loss in the run is
/// the burst chain's doing, and the goodput column isolates how much
/// *shape* (not amount) of loss costs. Once bursts reach the window's
/// size they defeat dup-ACK recovery and push the sender into RTO
/// backoff against the still-bad chain, so goodput falls monotonically
/// down the [`BURST_LENGTHS`] grid.
pub fn burst_sweep_report(
    mean_loss: f64,
    burst_lens: &[f64],
    warmup: Nanos,
    window: Nanos,
    master_seed: u64,
    runner: SweepRunner,
) -> (Vec<FaultResult>, SweepReport) {
    let wan = scaled_wan(Nanos::from_millis(20), 64 << 20);
    // 256 KB socket buffer → ~21-frame usable window, far below the
    // OC-48 BDP: the flow never congests the bottleneck, so every loss
    // in the run belongs to the burst chain, and the window is small
    // enough that the grid's larger bursts swallow it whole (see
    // [`BURST_LENGTHS`]).
    let buffer = Some(256 << 10);
    let grid = scenarios(master_seed, burst_lens.iter().copied(), |b| {
        format!("mean_loss={mean_loss}/burst={b}")
    });
    let results = runner
        .run(&grid, |sc| {
            let imp = Impairments::none().with_burst(GilbertElliott::bursty(mean_loss, sc.input));
            let spec = wan.with_impairments(imp);
            let (mut lab, mut eng) = faults_lab_tuned(&spec, buffer, sc.seed, &|s| s);
            let (b0, b1) = run_window(&mut lab, &mut eng, warmup, window, |lab, _| {
                lab.flows[0].app.received()
            });
            let conn = &lab.flows[0].conns[0];
            FaultResult {
                gbps: rate_of(b1 - b0, window).gbps(),
                retransmits: conn.stats.retransmits,
                timeouts: conn.cc.timeouts,
                fast_retransmits: conn.cc.fast_retransmits,
                impair_drops: lab.links[0].impair_drops(),
                drops: lab.links[0].total_drops(),
            }
        })
        .expect("burst sweep scenario panicked");
    let mut report = SweepReport::new("faults/burst_sweep", master_seed);
    for (sc, r) in grid.iter().zip(&results) {
        report.push_row(
            sc.index,
            sc.label.clone(),
            sc.seed,
            vec![
                ("mean_loss".to_string(), Json::F64(mean_loss)),
                ("burst_len".to_string(), Json::F64(sc.input)),
                ("gbps".to_string(), Json::F64(r.gbps)),
                ("retransmits".to_string(), Json::U64(r.retransmits)),
                ("timeouts".to_string(), Json::U64(r.timeouts)),
                (
                    "fast_retransmits".to_string(),
                    Json::U64(r.fast_retransmits),
                ),
                ("impair_drops".to_string(), Json::U64(r.impair_drops)),
            ],
        );
    }
    (results, report)
}

/// Result of one flap-recovery run.
#[derive(Debug, Clone, Copy)]
pub struct FlapRecovery {
    /// The scenario's base RTT.
    pub rtt: Nanos,
    /// Time from carrier restoration until the sender's `snd_una` passed
    /// everything it had sent when the carrier returned — i.e. until the
    /// outage's losses were fully repaired.
    pub recovery: Nanos,
    /// RTO firings over the whole run.
    pub timeouts: u64,
    /// Retransmissions over the whole run.
    pub retransmits: u64,
    /// Frames eaten by the scripted outage.
    pub flap_drops: u64,
}

/// Sweep a scripted carrier outage over RTT and measure how long the
/// sender needs to repair the damage once the carrier returns.
///
/// Per point: warm the flow to steady state, drop the carrier for
/// `2·RTT + 50 ms` (long enough that the whole window in flight — and the
/// first retransmissions — die), then clock how long until `snd_una`
/// passes the pre-restoration `snd_nxt`. Both the RTO estimate and the
/// retransmission clock scale with RTT, so recovery grows monotonically
/// with RTT — the paper's Table 1 trend.
pub fn flap_recovery_sweep_report(
    rtts: &[Nanos],
    master_seed: u64,
    runner: SweepRunner,
) -> (Vec<FlapRecovery>, SweepReport) {
    let grid = scenarios(master_seed, rtts.iter().copied(), |rtt| {
        format!("rtt_ms={}", rtt.as_nanos() / 1_000_000)
    });
    let results = runner
        .run(&grid, |sc| flap_recovery_run(sc.input, sc.seed))
        .expect("flap sweep scenario panicked");
    let mut report = SweepReport::new("faults/flap_recovery_sweep", master_seed);
    for (sc, r) in grid.iter().zip(&results) {
        report.push_row(
            sc.index,
            sc.label.clone(),
            sc.seed,
            vec![
                ("rtt_ns".to_string(), Json::U64(r.rtt.as_nanos())),
                ("recovery_ns".to_string(), Json::U64(r.recovery.as_nanos())),
                ("timeouts".to_string(), Json::U64(r.timeouts)),
                ("retransmits".to_string(), Json::U64(r.retransmits)),
                ("flap_drops".to_string(), Json::U64(r.flap_drops)),
            ],
        );
    }
    (results, report)
}

fn flap_recovery_run(rtt: Nanos, seed: u64) -> FlapRecovery {
    flap_recovery_run_tuned(rtt, seed, &|s| s)
}

/// One flap-recovery point with a sysctl override hook (see
/// [`faults_lab_tuned`]). The sweep always runs the stock WAN tuning;
/// tests use this to show the ladder is invariant to knobs that are not
/// supposed to bind on it — notably the 60 s RTO ceiling.
pub fn flap_recovery_run_tuned(
    rtt: Nanos,
    seed: u64,
    tweak: &dyn Fn(Sysctls) -> Sysctls,
) -> FlapRecovery {
    // 256 KB socket buffer: a fixed ~21-frame window at every RTT, so
    // each scenario loses the *same* amount of in-flight data to the
    // outage and the recovery clock — RTO estimate plus the per-hole
    // repair round-trips, both RTT-proportional — is the only thing the
    // sweep varies. (A whole-window loss yields no duplicate ACKs, so
    // every hole is repaired on the RTO clock; a big window would make
    // the 400 ms rung take minutes of simulated time.)
    let buffer = Some(256 << 10);
    let warmup = Nanos::from_secs(1).max(rtt * 15);
    let outage_len = rtt * 2 + Nanos::from_millis(50);
    let sched = ImpairmentSchedule::none().with_outage(warmup, outage_len);
    let wan = scaled_wan(rtt, 64 << 20).with_impairments(Impairments::none().with_schedule(sched));
    let (mut lab, mut eng) = faults_lab_tuned(&wan, buffer, seed, tweak);
    lab::kick(&mut lab, &mut eng);
    let flap_end = warmup + outage_len;
    let deadline = flap_end + Nanos::from_secs(120);
    // Run to carrier restoration, then in 1 ms steps until `snd_una`
    // passes `mark`: everything sent up to restoration.
    let mut target = None;
    let mut now = flap_end;
    loop {
        eng.advance_to(&mut lab, now);
        let conn = &lab.flows[0].conns[0];
        let mark = *target.get_or_insert(conn.snd_nxt());
        if conn.snd_una() >= mark || now >= deadline {
            break;
        }
        now += Nanos::from_millis(1);
    }
    lab::check_sanitizer(&lab, &mut eng, false);
    let conn = &lab.flows[0].conns[0];
    FlapRecovery {
        rtt,
        recovery: now - flap_end,
        timeouts: conn.cc.timeouts,
        retransmits: conn.stats.retransmits,
        flap_drops: lab.links[0]
            .hops
            .iter()
            .map(|h| h.impair.flap_drops.get())
            .sum(),
    }
}

// ---------------------------------------------------------------------
// chaos campaign
// ---------------------------------------------------------------------

/// One randomly drawn impairment cocktail — every field derives from the
/// scenario seed alone, so a spec (and the whole run behind it) is
/// reproducible from the seed.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Gilbert–Elliott mean loss on the bottleneck, `[0, 3%)`.
    pub mean_loss: f64,
    /// Mean burst length, `[1, 8)` frames.
    pub burst_len: f64,
    /// Reordering probability, `[0, 10%)`.
    pub reorder_p: f64,
    /// Maximum reordering delay, 50 µs – 1 ms.
    pub reorder_max: Nanos,
    /// Duplication probability, `[0, 2%)`.
    pub duplicate: f64,
    /// Corruption probability, `[0, 2%)`.
    pub corrupt: f64,
    /// Scripted outage start (sim time), if one was drawn.
    pub outage_at: Option<Nanos>,
    /// Scripted outage duration.
    pub outage_len: Nanos,
}

impl ChaosSpec {
    /// The composed impairment spec.
    pub fn impairments(&self) -> Impairments {
        let mut imp = Impairments::none()
            .with_burst(GilbertElliott::bursty(self.mean_loss, self.burst_len))
            .with_reorder(Reorder::new(
                self.reorder_p,
                Nanos::from_micros(10),
                self.reorder_max,
            ))
            .with_duplicate(self.duplicate)
            .with_corrupt(self.corrupt);
        if let Some(at) = self.outage_at {
            imp = imp.with_schedule(ImpairmentSchedule::none().with_outage(at, self.outage_len));
        }
        imp
    }
}

/// Draw a chaos scenario spec from a seed (pure function of the seed).
pub fn chaos_spec(seed: u64) -> ChaosSpec {
    let mut rng = SimRng::seeded(seed).fork("chaos-spec");
    let mean_loss = rng.uniform() * 0.03;
    let burst_len = 1.0 + rng.uniform() * 7.0;
    let reorder_p = rng.uniform() * 0.10;
    let reorder_max = Nanos::from_micros(rng.range(50, 1001));
    let duplicate = rng.uniform() * 0.02;
    let corrupt = rng.uniform() * 0.02;
    let (outage_at, outage_len) = if rng.chance(0.5) {
        (
            Some(Nanos::from_millis(rng.range(20, 81))),
            Nanos::from_millis(rng.range(5, 26)),
        )
    } else {
        (None, Nanos::from_millis(10))
    };
    ChaosSpec {
        mean_loss,
        burst_len,
        reorder_p,
        reorder_max,
        duplicate,
        corrupt,
        outage_at,
        outage_len,
    }
}

/// What a surviving chaos scenario measured.
#[derive(Debug, Clone, Copy)]
pub struct ChaosOutcome {
    /// End-to-end goodput of the fixed transfer, Gb/s.
    pub gbps: f64,
    /// Total transfer duration.
    pub duration: Nanos,
    /// Sender retransmissions.
    pub retransmits: u64,
    /// Sender RTO firings.
    pub timeouts: u64,
    /// Impairment-layer drops on the data path.
    pub impair_drops: u64,
    /// Duplicate copies minted.
    pub dup_frames: u64,
    /// Frames delayed by reordering.
    pub reordered: u64,
    /// Corrupted frames discarded at the receiver's NIC.
    pub crc_drops: u64,
    /// Engine events executed.
    pub events: u64,
}

/// The chaos lab: a 10G host pair over a 1 Gb/s bottleneck hop carrying
/// the scenario's impairment cocktail (forward direction only), moving a
/// fixed 4 MB nttcp transfer to completion.
fn chaos_lab(spec: &ChaosSpec, seed: u64) -> (Lab, LabEngine) {
    let cfg = HostConfig {
        hw: tengig_hw::HostSpec::wan_endpoint(),
        nic: NicSpec::intel_pro_10gbe(),
        sysctls: Sysctls::wan_tuned(4 << 20),
    };
    let imp = spec.impairments();
    let bottleneck = |imp: Impairments| Path {
        hops: vec![
            Hop::wire(
                "chaos-uplink",
                Bandwidth::from_gbps(10),
                Nanos::from_micros(5),
            ),
            Hop::wire(
                "chaos-bottleneck",
                Bandwidth::from_gbps(1),
                Nanos::from_micros(200),
            )
            .with_buffer(256 << 10)
            .with_impairments(imp),
        ],
    };
    let payload = cfg.sysctls.mss();
    let count = (4 << 20) / payload;
    let app = App::Nttcp {
        tx: NttcpSender::new(payload, count),
        rx: NttcpReceiver::new(payload * count),
    };
    let (fwd, rev) = (bottleneck(imp), bottleneck(Impairments::none()));
    let (mut lab, mut eng) = pair(cfg, cfg, &fwd, &rev, app, seed);
    eng.event_limit = 50_000_000;
    // Chaos runs always arm the sanitizer and flight recorder — the whole
    // point is running pathological inputs with the invariants on,
    // regardless of the debug/release default.
    lab::install_sanitizer(&mut lab, &mut eng, seed);
    (lab, eng)
}

/// Run one chaos scenario to completion under the sanitizer. Returns the
/// outcome, or the panic text if the scenario blew an invariant (or
/// `inject_failure` forced the failure path — used to prove the campaign's
/// seed-reproduction plumbing end to end).
pub fn chaos_run(seed: u64, inject_failure: bool) -> Result<ChaosOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let spec = chaos_spec(seed);
        let (mut lab, mut eng) = chaos_lab(&spec, seed);
        if inject_failure {
            panic!("injected chaos failure (seed {seed}) — repro-path self-test");
        }
        // Drained run: every injected byte must be delivered or accounted
        // as dropped, duplicates and corruption included.
        run_to_completion(&mut lab, &mut eng);
        let m = &lab.flows[0].meas;
        let (t0, t1) = (
            m.t_start.unwrap_or(Nanos::ZERO),
            m.t_done.unwrap_or(Nanos::ZERO),
        );
        let duration = t1.saturating_sub(t0);
        let bytes = lab.flows[0].app.received();
        let conn = &lab.flows[0].conns[0];
        ChaosOutcome {
            gbps: if duration == Nanos::ZERO {
                0.0
            } else {
                rate_of(bytes, duration).gbps()
            },
            duration,
            retransmits: conn.stats.retransmits,
            timeouts: conn.cc.timeouts,
            impair_drops: lab.links[0].impair_drops(),
            dup_frames: lab.links[0].dup_frames(),
            reordered: lab.links[0].reordered_frames(),
            crc_drops: lab.hosts[1].rx_crc_drops,
            events: eng.executed(),
        }
    }))
    .map_err(|p| panic_text(p.as_ref()))
}

/// One campaign scenario's record: seed, spec, and survive/fail outcome.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Scenario index within the campaign.
    pub index: usize,
    /// The scenario seed — everything reproduces from this.
    pub seed: u64,
    /// Outcome: measurements, or the failure text.
    pub outcome: Result<ChaosOutcome, String>,
}

/// Run an N-scenario chaos campaign on the deterministic sweep runner.
///
/// `inject_failure` deliberately fails one scenario (by index) through
/// the same panic-capture path a real invariant violation would take —
/// the self-test that a printed seed actually reproduces its failure.
/// Failures never abort the campaign; they become rows.
pub fn chaos_campaign(
    n: usize,
    master_seed: u64,
    inject_failure: Option<usize>,
    runner: SweepRunner,
) -> (Vec<ChaosRow>, SweepReport) {
    let grid = scenarios(master_seed, 0..n, |i| format!("chaos-{i:03}"));
    let outcomes = runner
        .run(&grid, |sc| {
            chaos_run(sc.seed, inject_failure == Some(sc.index))
        })
        .expect("chaos_run captures panics; the sweep closure never panics");
    let mut rows = Vec::with_capacity(n);
    let mut report = SweepReport::new("faults/chaos_campaign", master_seed);
    for (sc, outcome) in grid.iter().zip(outcomes) {
        let spec = chaos_spec(sc.seed);
        let mut fields = vec![
            ("survived".to_string(), Json::Bool(outcome.is_ok())),
            ("mean_loss".to_string(), Json::F64(spec.mean_loss)),
            ("burst_len".to_string(), Json::F64(spec.burst_len)),
            ("reorder_p".to_string(), Json::F64(spec.reorder_p)),
            ("duplicate".to_string(), Json::F64(spec.duplicate)),
            ("corrupt".to_string(), Json::F64(spec.corrupt)),
            (
                "outage".to_string(),
                spec.outage_at
                    .map_or(Json::Null, |at| Json::U64(at.as_nanos())),
            ),
        ];
        match &outcome {
            Ok(o) => {
                fields.push(("gbps".to_string(), Json::F64(o.gbps)));
                fields.push(("retransmits".to_string(), Json::U64(o.retransmits)));
                fields.push(("timeouts".to_string(), Json::U64(o.timeouts)));
                fields.push(("impair_drops".to_string(), Json::U64(o.impair_drops)));
                fields.push(("dup_frames".to_string(), Json::U64(o.dup_frames)));
                fields.push(("reordered".to_string(), Json::U64(o.reordered)));
                fields.push(("crc_drops".to_string(), Json::U64(o.crc_drops)));
                fields.push(("failure".to_string(), Json::Null));
            }
            Err(e) => {
                // First line only: panic payloads embed full reports.
                let first = e.lines().next().unwrap_or("").to_string();
                fields.push(("failure".to_string(), Json::Str(first)));
            }
        }
        report.push_row(sc.index, sc.label.clone(), sc.seed, fields);
        rows.push(ChaosRow {
            index: sc.index,
            seed: sc.seed,
            outcome,
        });
    }
    (rows, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_wan_hits_its_rtt() {
        let wan = scaled_wan(Nanos::from_millis(20), 64 << 20);
        let rtt = wan.rtt_small().as_millis_f64();
        assert!((19.5..21.5).contains(&rtt), "rtt {rtt} ms");
    }

    #[test]
    fn chaos_spec_is_a_pure_function_of_the_seed() {
        let a = chaos_spec(42);
        let b = chaos_spec(42);
        assert_eq!(a.mean_loss, b.mean_loss);
        assert_eq!(a.reorder_max, b.reorder_max);
        assert_eq!(a.outage_at, b.outage_at);
        let c = chaos_spec(43);
        assert_ne!(
            (a.mean_loss, a.reorder_max),
            (c.mean_loss, c.reorder_max),
            "different seeds must draw different cocktails"
        );
    }

    #[test]
    fn chaos_run_survives_and_reproduces() {
        let seed = SimRng::scenario_seed(2003, 0);
        let a = chaos_run(seed, false).expect("scenario must survive");
        let b = chaos_run(seed, false).expect("scenario must survive");
        assert_eq!(a.duration, b.duration, "chaos runs must be reproducible");
        assert_eq!(a.retransmits, b.retransmits);
        assert_eq!(a.events, b.events);
        assert!(a.gbps > 0.0);
    }

    #[test]
    fn impairments_stay_on_the_data_path() {
        // Burst loss on the faults lab, measured over a window...
        let burst = Impairments::none().with_burst(GilbertElliott::bursty(3e-3, 8.0));
        let wan = scaled_wan(Nanos::from_millis(20), 64 << 20).with_impairments(burst);
        let (mut faults, mut eng) = faults_lab_tuned(&wan, Some(256 << 10), 2003, &|s| s);
        let second = Nanos::from_secs(1);
        run_window(&mut faults, &mut eng, second, second, |_, _| ());
        // ...and a chaos cocktail, run to completion.
        let seed = SimRng::scenario_seed(2003, 0);
        let (mut chaos, mut eng) = chaos_lab(&chaos_spec(seed), seed);
        run_to_completion(&mut chaos, &mut eng);
        for (name, lab) in [("faults", &faults), ("chaos", &chaos)] {
            let (data, ack) = (&lab.links[0], &lab.links[1]);
            assert!(data.impair_drops() > 0, "{name}: no data frame was lost");
            assert_eq!(
                (ack.impair_drops(), ack.dup_frames(), ack.reordered_frames()),
                (0, 0, 0),
                "{name}: the ACK path must stay clean"
            );
        }
    }

    #[test]
    fn injected_failure_reports_and_reproduces() {
        let seed = SimRng::scenario_seed(7, 3);
        let e1 = chaos_run(seed, true).expect_err("injection must fail");
        let e2 = chaos_run(seed, true).expect_err("injection must fail");
        assert_eq!(e1, e2);
        assert!(e1.contains(&format!("seed {seed}")), "failure text: {e1}");
    }
}
