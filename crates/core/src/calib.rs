//! Calibration: the paper's headline numbers as machine-checked targets.
//!
//! Every target lists the paper's value, the experiment that reproduces it,
//! and the tolerance band we hold the simulator to. `run_calibration`
//! executes the whole battery and returns comparison rows — this is what
//! `EXPERIMENTS.md` and the `paper_fidelity` integration test are built
//! from.
//!
//! Tolerances are deliberately honest: headline results (stock peaks, the
//! tuned 4.11 Gb/s, the latency trio, pktgen, the WAN record) hold within
//! ~10%; the mid-ladder rungs and the 1500-byte tuned cases carry the
//! model's known ~20-30% residuals (see `EXPERIMENTS.md` for discussion).

use crate::config::LadderRung;
use crate::experiments::latency::{netpipe_point, without_coalescing};
use crate::experiments::throughput::{nttcp_point, pktgen_run};
use crate::experiments::wan::record_run;
use crate::report::Comparison;
use tengig_ethernet::Mtu;
use tengig_net::WanSpec;
use tengig_sim::Nanos;

/// One calibration target.
#[derive(Debug, Clone)]
pub struct Target {
    /// Comparison row (paper vs measured).
    pub cmp: Comparison,
    /// Relative tolerance the laboratory commits to.
    pub tol: f64,
}

impl Target {
    /// Whether the measurement honours the tolerance.
    pub fn pass(&self) -> bool {
        self.cmp.within(self.tol)
    }
}

/// Packet count per throughput point. The paper's 32,768 converges to the
/// same numbers; 6,000 keeps the battery fast enough for CI.
pub const CALIB_COUNT: u64 = 6_000;

fn peak(rung: LadderRung, mtu: Mtu, payload: u64) -> f64 {
    nttcp_point(rung.pe2650_config(mtu), payload, CALIB_COUNT, 7)
        .throughput
        .gbps()
}

/// Run the full calibration battery. Expensive (several seconds of CPU);
/// points run in parallel where the experiment allows.
pub fn run_calibration() -> Vec<Target> {
    let mut out = Vec::new();
    let mut push = |name: &str, paper: f64, measured: f64, unit: &'static str, tol: f64| {
        out.push(Target {
            cmp: Comparison {
                name: name.into(),
                paper,
                measured,
                unit,
            },
            tol,
        });
    };

    // --- Fig. 3: stock TCP peaks ---
    push(
        "fig3 stock peak, 1500 MTU",
        1.8,
        peak(LadderRung::Stock, Mtu::STANDARD, 1448),
        "Gb/s",
        0.25,
    );
    push(
        "fig3 stock peak, 9000 MTU",
        2.7,
        peak(LadderRung::Stock, Mtu::JUMBO_9000, 8948),
        "Gb/s",
        0.10,
    );

    // --- §3.3 ladder ---
    push(
        "MMRBC 4096 peak, 9000 MTU",
        3.6,
        peak(LadderRung::PciBurst, Mtu::JUMBO_9000, 8948),
        "Gb/s",
        0.25,
    );
    push(
        "UP kernel peak, 1500 MTU",
        2.15,
        peak(LadderRung::Uniprocessor, Mtu::STANDARD, 1448),
        "Gb/s",
        0.25,
    );
    // --- Fig. 4: oversized windows ---
    push(
        "fig4 256KB windows peak, 9000 MTU",
        3.9,
        peak(LadderRung::OversizedWindows, Mtu::JUMBO_9000, 8948),
        "Gb/s",
        0.10,
    );
    push(
        "fig4 256KB windows peak, 1500 MTU",
        2.47,
        peak(LadderRung::OversizedWindows, Mtu::STANDARD, 1448),
        "Gb/s",
        0.35,
    );
    // --- Fig. 5: tuned MTUs ---
    push(
        "fig5 peak, 8160 MTU",
        4.11,
        peak(LadderRung::Mtu8160, Mtu::TUNED_8160, 8108),
        "Gb/s",
        0.10,
    );
    push(
        "fig5 peak, 16000 MTU",
        4.09,
        peak(LadderRung::Mtu16000, Mtu::MAX_INTEL_16000, 15948),
        "Gb/s",
        0.10,
    );

    // --- Figs. 6-7: latency ---
    let lat_cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    push(
        "fig6 one-way latency, back-to-back, 1 B",
        19.0,
        netpipe_point(lat_cfg, 1, false, 18).as_micros_f64(),
        "us",
        0.08,
    );
    push(
        "fig6 one-way latency, through switch, 1 B",
        25.0,
        netpipe_point(lat_cfg, 1, true, 18).as_micros_f64(),
        "us",
        0.08,
    );
    push(
        "fig6 one-way latency, back-to-back, 1024 B",
        23.0,
        netpipe_point(lat_cfg, 1024, false, 1041).as_micros_f64(),
        "us",
        0.08,
    );
    push(
        "fig7 latency without coalescing, 1 B",
        14.0,
        netpipe_point(without_coalescing(lat_cfg), 1, false, 18).as_micros_f64(),
        "us",
        0.08,
    );

    // --- §3.5.2: packet generator ---
    let pg = pktgen_run(
        LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160),
        8132,
        8_000,
    );
    push("pktgen single-copy max", 5.5, pg.gbps, "Gb/s", 0.12);
    push("pktgen packet rate", 88_400.0, pg.pps, "pkt/s", 0.12);

    // --- §4: the WAN record ---
    let wan = record_run(
        &WanSpec::record_run(),
        None,
        Nanos::from_secs(3),
        Nanos::from_secs(2),
        2003,
    );
    push("WAN single-stream record", 2.38, wan.gbps, "Gb/s", 0.05);
    push(
        "WAN payload efficiency",
        0.99,
        wan.payload_efficiency,
        "",
        0.05,
    );
    push(
        "WAN terabyte transfer time",
        3361.0, // 1 TB at 2.38 Gb/s
        wan.terabyte_time.as_secs_f64(),
        "s",
        0.06,
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_pass_logic() {
        let t = Target {
            cmp: Comparison {
                name: "x".into(),
                paper: 2.0,
                measured: 2.1,
                unit: "Gb/s",
            },
            tol: 0.06,
        };
        assert!(t.pass());
        let t2 = Target { tol: 0.04, ..t };
        assert!(!t2.pass());
    }
}
