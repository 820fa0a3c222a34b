//! The §4 WAN experiment: the Internet2 Land Speed Record run.
//!
//! A single TCP stream from Sunnyvale to Geneva across the OC-192/OC-48
//! circuit, with socket buffers tuned to the bandwidth-delay product so the
//! flow-control window caps the congestion window just below the congested
//! state — "the network approaches congestion but avoids it altogether".

use super::{pair, run_window};
use crate::config::HostConfig;
use crate::lab::{App, Lab, LabEngine};
use crate::report::{Json, SweepReport};
use crate::sweep::{scenarios, SweepRunner};
use tengig_net::WanSpec;
use tengig_nic::NicSpec;
use tengig_sim::{rate_of, Nanos, ObsConfig, Timelines};
use tengig_tcp::Sysctls;
use tengig_tools::{NttcpReceiver, NttcpSender};

/// Result of a WAN run.
#[derive(Debug, Clone, Copy)]
pub struct WanResult {
    /// Steady-state throughput over the measurement window, Gb/s.
    pub gbps: f64,
    /// Retransmissions observed at the sender.
    pub retransmits: u64,
    /// Congestion drops at the bottleneck.
    pub drops: u64,
    /// Payload efficiency relative to the OC-48 payload capacity.
    pub payload_efficiency: f64,
    /// Projected time to move a terabyte at the measured rate.
    pub terabyte_time: Nanos,
}

/// The §4.1 endpoint: dual 2.4 GHz Xeon, jumbo frames, buffers ≈ BDP.
pub fn wan_host(wan: &WanSpec, buffer: Option<u64>) -> HostConfig {
    let bdp = wan.bdp();
    HostConfig {
        hw: tengig_hw::HostSpec::wan_endpoint(),
        nic: NicSpec::intel_pro_10gbe(),
        sysctls: Sysctls::wan_tuned(buffer.unwrap_or(bdp)),
    }
}

/// An effectively endless NTTCP stream of `cfg`'s MSS-sized writes, for
/// runs measured over a window rather than to completion.
pub(crate) fn endless_stream(cfg: &HostConfig) -> App {
    let payload = cfg.sysctls.mss();
    let count = 100_000_000;
    App::Nttcp {
        tx: NttcpSender::new(payload, count),
        rx: NttcpReceiver::new(payload * count),
    }
}

/// Build the WAN lab: Sunnyvale and Geneva across the OC-192/OC-48
/// circuit, one endless stream. The path has stochastic elements (random
/// loss, impairments), so the seed matters here.
pub fn wan_lab_seeded(wan: &WanSpec, buffer: Option<u64>, seed: u64) -> (Lab, LabEngine) {
    let cfg = wan_host(wan, buffer);
    let (fwd, rev) = (wan.forward_path(), wan.reverse_path());
    pair(cfg, cfg, &fwd, &rev, endless_stream(&cfg), seed)
}

/// Run the record scenario: warm up past slow start, then measure.
pub fn record_run(wan: &WanSpec, buffer: Option<u64>, warmup: Nanos, window: Nanos) -> WanResult {
    record_run_seeded(wan, buffer, warmup, window, 2003)
}

/// [`record_run`] with an explicit RNG seed (used by the sweep runner's
/// per-scenario seeding).
pub fn record_run_seeded(
    wan: &WanSpec,
    buffer: Option<u64>,
    warmup: Nanos,
    window: Nanos,
    seed: u64,
) -> WanResult {
    record_run_inner(wan, buffer, warmup, window, seed, None).0
}

/// [`record_run_seeded`] with the observability layer enabled: returns the
/// WAN result plus the metrics timelines — the cwnd-vs-time series that
/// reproduces the record run's AIMD plot (flow 0, endpoint 0, `cwnd`).
pub fn record_timeline(
    wan: &WanSpec,
    buffer: Option<u64>,
    warmup: Nanos,
    window: Nanos,
    seed: u64,
    obs: &ObsConfig,
) -> (WanResult, Timelines) {
    let (result, tl) = record_run_inner(wan, buffer, warmup, window, seed, Some(obs));
    (result, tl.expect("obs was enabled"))
}

fn record_run_inner(
    wan: &WanSpec,
    buffer: Option<u64>,
    warmup: Nanos,
    window: Nanos,
    seed: u64,
    obs: Option<&ObsConfig>,
) -> (WanResult, Option<Timelines>) {
    let (mut lab, mut eng) = wan_lab_seeded(wan, buffer, seed);
    if let Some(cfg) = obs {
        lab.enable_obs(cfg, seed);
    }
    let (b0, b1) = run_window(&mut lab, &mut eng, warmup, window, |lab, _| {
        lab.flows[0].app.received()
    });
    let gbps = rate_of(b1 - b0, window).gbps();
    let bottleneck = wan.forward_path().bottleneck().gbps();
    let drops = lab.links[0].total_drops();
    let result = WanResult {
        gbps,
        retransmits: lab.flows[0].conns[0].stats.retransmits,
        drops,
        payload_efficiency: gbps / bottleneck,
        terabyte_time: Nanos::from_secs_f64(1e12 * 8.0 / (gbps * 1e9)),
    };
    (result, lab.take_timelines())
}

/// Sweep the record scenario over socket-buffer sizes (`None` = BDP-tuned)
/// on the deterministic sweep runner. Returns the per-point results plus
/// the machine-readable [`SweepReport`].
pub fn buffer_sweep_report(
    wan: &WanSpec,
    buffers: &[Option<u64>],
    warmup: Nanos,
    window: Nanos,
    master_seed: u64,
    runner: SweepRunner,
) -> (Vec<WanResult>, SweepReport) {
    let grid = scenarios(master_seed, buffers.iter().copied(), |b| match b {
        Some(bytes) => format!("buffer={bytes}"),
        None => "buffer=bdp".to_string(),
    });
    let results = runner
        .run(&grid, |sc| {
            record_run_seeded(wan, sc.input, warmup, window, sc.seed)
        })
        .expect("wan sweep scenario panicked");
    let mut report = SweepReport::new("wan/record_buffer_sweep", master_seed);
    for (sc, r) in grid.iter().zip(&results) {
        report.push_row(
            sc.index,
            sc.label.clone(),
            sc.seed,
            vec![
                ("buffer".to_string(), sc.input.map_or(Json::Null, Json::U64)),
                ("gbps".to_string(), Json::F64(r.gbps)),
                ("retransmits".to_string(), Json::U64(r.retransmits)),
                ("drops".to_string(), Json::U64(r.drops)),
                (
                    "payload_efficiency".to_string(),
                    Json::F64(r.payload_efficiency),
                ),
            ],
        );
    }
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdp_tuned_run_is_lossless_and_fast() {
        let wan = WanSpec::record_run();
        // Short debug-friendly windows: 3 s warmup (slow start at 90 ms
        // one-way needs ~15 RTTs), 2 s measurement.
        let r = record_run(&wan, None, Nanos::from_secs(3), Nanos::from_secs(2));
        assert_eq!(r.retransmits, 0, "BDP-capped flow must not lose packets");
        assert_eq!(r.drops, 0);
        assert!(r.gbps > 2.0, "steady state {} Gb/s (paper: 2.38)", r.gbps);
        assert!(
            r.payload_efficiency > 0.85,
            "efficiency {}",
            r.payload_efficiency
        );
        // A terabyte in less than an hour (paper's headline).
        assert!(
            r.terabyte_time < Nanos::from_secs(3600),
            "terabyte in {}",
            r.terabyte_time
        );
    }

    #[test]
    fn undersized_buffers_throttle_throughput() {
        let wan = WanSpec::record_run();
        let small = record_run(
            &wan,
            Some(8 << 20), // 8 MB ≪ 54 MB BDP
            Nanos::from_secs(2),
            Nanos::from_secs(2),
        );
        // W/RTT with W=6 MB usable (3/4 of 8 MB) and RTT 180 ms ≈ 0.27 Gb/s.
        assert!(
            small.gbps < 0.6,
            "undersized buffer still got {} Gb/s",
            small.gbps
        );
    }
}
