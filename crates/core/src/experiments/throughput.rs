//! NTTCP throughput experiments: Figs. 3-5, the §3.3 optimization ladder,
//! the §3.4 anecdotal hosts, and the §3.5.2 packet generator.

use super::{b2b_lab, run_to_completion};
use crate::config::{HostConfig, LadderRung};
use crate::lab::{self, App};
use crate::report::{Json, MetricsSidecar, SweepReport};
use crate::sweep::{scenarios, SweepRunner};
use tengig_ethernet::Mtu;
use tengig_sim::stats::Series;
use tengig_sim::{rate_of, Nanos, ObsConfig, Timelines};
use tengig_tools::{NttcpReceiver, NttcpResult, NttcpSender, Pktgen};

/// Default packet count per sweep point. The paper uses 32,768; sweeps
/// converge well before that, so callers may reduce it for quick runs.
pub const DEFAULT_COUNT: u64 = 32_768;

/// Default master seed for the paper sweeps (the publication year).
/// Every scenario's seed derives from this and its grid index.
pub const MASTER_SEED: u64 = 2003;

/// Run a single NTTCP point back-to-back.
pub fn nttcp_point(cfg: HostConfig, payload: u64, count: u64, seed: u64) -> NttcpResult {
    nttcp_run(cfg, payload, count, seed, None).0
}

/// [`nttcp_point`], with the observability layer enabled when `obs` is
/// set: the identical simulation (sampling is strictly read-only), plus
/// the run's metrics timelines (`None` when obs is off).
pub fn nttcp_run(
    cfg: HostConfig,
    payload: u64,
    count: u64,
    seed: u64,
    obs: Option<&ObsConfig>,
) -> (NttcpResult, Option<Timelines>) {
    let app = App::Nttcp {
        tx: NttcpSender::new(payload, count),
        rx: NttcpReceiver::new(payload * count),
    };
    let (mut lab, mut eng) = b2b_lab(cfg, app, seed);
    if let Some(cfg) = obs {
        lab.enable_obs(cfg, seed);
    }
    run_to_completion(&mut lab, &mut eng);
    let timelines = lab.take_timelines();
    let flow = &lab.flows[0];
    let App::Nttcp { tx, rx } = &flow.app else {
        unreachable!()
    };
    let result =
        NttcpResult::from_run(tx, rx, lab::cpu_load(&lab, 0, 0), lab::cpu_load(&lab, 0, 1))
            .expect("run completed");
    (result, timelines)
}

/// Sweep NTTCP throughput over payload sizes on the deterministic sweep
/// runner (one simulation per scenario, fanned across worker threads).
/// Returns a figure series labeled like the paper's legends, the
/// machine-readable [`SweepReport`], and — when `obs` is set — the
/// metrics side-channel: every scenario's timelines, in a
/// [`MetricsSidecar`] alongside, never inside, the primary report, whose
/// bytes are identical with obs on or off.
///
/// Every output is a pure function of `(cfg, payloads, count,
/// master_seed, obs)` — the runner's thread count cannot change a byte.
pub fn throughput_sweep_report(
    cfg: HostConfig,
    label: impl Into<String>,
    payloads: &[u64],
    count: u64,
    master_seed: u64,
    runner: SweepRunner,
    obs: Option<&ObsConfig>,
) -> (Series, SweepReport, Option<MetricsSidecar>) {
    let label = label.into();
    let grid = scenarios(master_seed, payloads.iter().copied(), |p| {
        format!("{label}/payload={p}")
    });
    let results = runner
        .run(&grid, |sc| {
            let (r, tl) = nttcp_run(cfg, sc.input, count, sc.seed, obs);
            (r, tl.map(|tl| tl.to_jsonl()))
        })
        .expect("throughput sweep scenario panicked");
    let mut series = Series::new(label.clone());
    let mut report = SweepReport::new(label.clone(), master_seed);
    let mut sidecar = obs.map(|_| MetricsSidecar::new(label));
    for (sc, (r, tl)) in grid.iter().zip(results) {
        let mbps = r.throughput.gbps() * 1000.0;
        series.push(sc.input as f64, mbps);
        report.push_row(
            sc.index,
            sc.label.clone(),
            sc.seed,
            vec![
                ("payload".to_string(), Json::U64(sc.input)),
                ("mbps".to_string(), Json::F64(mbps)),
                ("rx_cpu_load".to_string(), Json::F64(r.rx_cpu_load)),
                ("tx_cpu_load".to_string(), Json::F64(r.tx_cpu_load)),
            ],
        );
        if let (Some(sidecar), Some(tl)) = (&mut sidecar, tl) {
            sidecar.push(sc.index, sc.label.clone(), tl);
        }
    }
    (series, report, sidecar)
}

/// Sweep NTTCP throughput over payload sizes, in parallel. Returns a
/// figure series labeled like the paper's legends. Sweep points are sorted
/// by payload because the grid is enumerated that way, not because the
/// results are sorted after the fact.
pub fn throughput_sweep(
    cfg: HostConfig,
    label: impl Into<String>,
    payloads: &[u64],
    count: u64,
) -> Series {
    let mut payloads: Vec<u64> = payloads.to_vec();
    payloads.sort_unstable();
    throughput_sweep_report(
        cfg,
        label,
        &payloads,
        count,
        MASTER_SEED,
        SweepRunner::default(),
        None,
    )
    .0
}

/// One rung of the §3.3 ladder, measured.
#[derive(Debug, Clone)]
pub struct LadderResult {
    /// The rung.
    pub rung: LadderRung,
    /// Legend-style label.
    pub label: String,
    /// Peak throughput over the sweep (Mb/s).
    pub peak_mbps: f64,
    /// Mean throughput over the sweep (Mb/s).
    pub mean_mbps: f64,
    /// Receiver CPU load at the full-MSS point.
    pub rx_cpu_load: f64,
    /// Sender CPU load at the full-MSS point.
    pub tx_cpu_load: f64,
}

/// Run the full optimization ladder at one base MTU with a reduced sweep
/// (the peaks live near the MSS, so a coarse sweep finds them).
pub fn ladder(mtu: Mtu, payloads: &[u64], count: u64) -> Vec<LadderResult> {
    LadderRung::ALL
        .iter()
        .map(|&rung| {
            let cfg = rung.pe2650_config(mtu);
            let label = rung.label(mtu);
            let series = throughput_sweep(cfg, label.clone(), payloads, count);
            // CPU load measured at the configured MSS (full segments).
            let full = nttcp_point(cfg, cfg.sysctls.mss(), count, 11);
            LadderResult {
                rung,
                label,
                peak_mbps: series.peak(),
                mean_mbps: series.mean(),
                rx_cpu_load: full.rx_cpu_load,
                tx_cpu_load: full.tx_cpu_load,
            }
        })
        .collect()
}

/// Run a single Iperf point back-to-back: a timed stream of `payload`-byte
/// writes, measured over `duration` after `start`.
///
/// §3.2: "Iperf measures the amount of data sent over a consistent stream
/// in a set time … well suited for measuring raw bandwidth"; the paper
/// notes it agrees with NTTCP within 2-3%.
pub fn iperf_point(cfg: HostConfig, payload: u64, start: Nanos, duration: Nanos, seed: u64) -> f64 {
    let app = App::Iperf(tengig_tools::Iperf::new(start, duration, payload));
    let (mut lab, mut eng) = b2b_lab(cfg, app, seed);
    crate::lab::kick(&mut lab, &mut eng);
    // Run past the deadline so in-flight data lands and is counted (the
    // tool itself clips to the window).
    eng.run_until(&mut lab, start + duration + Nanos::from_millis(20));
    // The deadline cuts the run short of a full drain; skip the drain check.
    crate::lab::check_sanitizer(&lab, &mut eng, false);
    let App::Iperf(ip) = &lab.flows[0].app else {
        unreachable!()
    };
    ip.throughput().gbps()
}

/// The §3.5.2 packet-generator experiment.
#[derive(Debug, Clone, Copy)]
pub struct PktgenResult {
    /// Payload per packet.
    pub payload: u64,
    /// Achieved packets per second.
    pub pps: f64,
    /// Achieved payload bandwidth in Gb/s.
    pub gbps: f64,
}

/// Run pktgen back-to-back with `count` packets of `payload` bytes.
pub fn pktgen_run(cfg: HostConfig, payload: u64, count: u64) -> PktgenResult {
    let (mut lab, mut eng) = b2b_lab(cfg, App::Pktgen(Pktgen::new(payload, count)), 3);
    run_to_completion(&mut lab, &mut eng);
    let App::Pktgen(pg) = &lab.flows[0].app else {
        unreachable!()
    };
    PktgenResult {
        payload,
        pps: pg.packets_per_sec(),
        gbps: pg.throughput().gbps(),
    }
}

/// Steady-state throughput of a long NTTCP run measured over a window
/// (used by WAN and anecdotal experiments where slow-start warmup must be
/// excluded).
pub fn windowed_throughput(
    mut lab: crate::lab::Lab,
    mut eng: crate::lab::LabEngine,
    warmup: Nanos,
    window: Nanos,
) -> f64 {
    crate::lab::kick(&mut lab, &mut eng);
    // advance_to (not run_until) so the clock sits exactly on the window
    // edges and `window` is exactly the virtual time measured over.
    eng.advance_to(&mut lab, warmup);
    let bytes_at = |lab: &crate::lab::Lab| match &lab.flows[0].app {
        App::Nttcp { rx, .. } => rx.received,
        _ => 0,
    };
    let b0 = bytes_at(&lab);
    eng.advance_to(&mut lab, warmup + window);
    // Windowed run: frames are still in flight, so no drain check.
    crate::lab::check_sanitizer(&lab, &mut eng, false);
    let b1 = bytes_at(&lab);
    rate_of(b1 - b0, window).gbps()
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: u64 = 1200;

    #[test]
    fn jumbo_beats_standard_mtu_stock() {
        // Fig. 3 shape: 9000 MTU ≈ 1.5x the 1500 MTU peak, stock config.
        let std = nttcp_point(
            LadderRung::Stock.pe2650_config(Mtu::STANDARD),
            1448,
            QUICK,
            1,
        );
        let jumbo = nttcp_point(
            LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000),
            8948,
            QUICK,
            1,
        );
        let r = jumbo.throughput.gbps() / std.throughput.gbps();
        assert!((1.25..2.2).contains(&r), "jumbo/std ratio {r}");
    }

    #[test]
    fn sweep_is_sorted_and_labeled() {
        let cfg = LadderRung::Stock.pe2650_config(Mtu::STANDARD);
        let s = throughput_sweep(cfg, "1500MTU,SMP,512PCI", &[512, 1448, 1024], 300);
        assert_eq!(s.label, "1500MTU,SMP,512PCI");
        let xs: Vec<f64> = s.points.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![512.0, 1024.0, 1448.0]);
        assert!(s.peak() > 0.0);
    }

    #[test]
    fn ladder_improves_monotonically_at_jumbo_peak() {
        // The paper's ladder: each rung's peak ≥ the previous (within
        // simulation noise at reduced packet counts).
        let results = ladder(Mtu::JUMBO_9000, &[8948], QUICK);
        assert_eq!(results.len(), 6);
        let stock = results[0].peak_mbps;
        let win = results[3].peak_mbps;
        let m8160 = results[4].peak_mbps;
        assert!(win > stock * 1.2, "windows rung {win} vs stock {stock}");
        assert!(m8160 >= win * 0.9, "8160 {m8160} vs windows {win}");
    }

    #[test]
    fn pktgen_beats_tcp() {
        // §3.5.2: observed TCP ≈ 75% of pktgen.
        let cfg = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
        let pg = pktgen_run(cfg, 8132, 2000);
        let tcp = nttcp_point(cfg, 8108, QUICK, 1);
        assert!(
            pg.gbps > tcp.throughput.gbps(),
            "pktgen {} must beat TCP {}",
            pg.gbps,
            tcp.throughput.gbps()
        );
    }
}
