//! NetPipe latency experiments: Figs. 6 and 7.

use super::{pair, run_to_completion, xover, XOVER_PROP};
use crate::config::{HostConfig, TuningStep};
use crate::lab::App;
use crate::report::{Json, SweepReport};
use crate::sweep::{scenarios, SweepRunner};
use tengig_net::{Hop, Path};
use tengig_sim::stats::Series;
use tengig_sim::{Bandwidth, Nanos};
use tengig_tools::NetPipe;

/// Rounds per NetPipe point ("an averaged round-trip time over several
/// single-byte, ping-pong tests").
pub const ROUNDS: u64 = 50;

/// The Fig. 2b path through the FastIron switch: a host link into the
/// switch, then its store-and-forward egress with the fixed forwarding
/// latency and a 2 MiB egress buffer.
fn fastiron() -> Path {
    let line = Bandwidth::from_gbps(10);
    Path {
        hops: vec![
            Hop::wire("host-sw", line, XOVER_PROP),
            Hop::wire("sw-egress", line, XOVER_PROP)
                .with_fixed(Nanos::from_nanos(5_850))
                .with_buffer(2 << 20),
        ],
    }
}

/// One-way latency for one payload size, back-to-back or through the
/// switch, from `seed`.
pub fn netpipe_point(cfg: HostConfig, payload: u64, through_switch: bool, seed: u64) -> Nanos {
    let app = App::NetPipe(NetPipe::new(payload, ROUNDS));
    let path = if through_switch { fastiron() } else { xover() };
    let (mut lab, mut eng) = pair(cfg, cfg, &path, &path, app, seed);
    run_to_completion(&mut lab, &mut eng);
    let App::NetPipe(np) = &lab.flows[0].app else {
        unreachable!()
    };
    np.one_way_latency()
}

/// The Fig. 6/7 payload range: 1 byte to 1 KiB.
pub fn paper_latency_payloads() -> Vec<u64> {
    let mut v = vec![1u64];
    v.extend((64..=1024).step_by(64));
    v
}

/// Sweep one-way latency over payloads on the deterministic sweep runner.
/// Returns the figure series (µs on the y axis) plus the machine-readable
/// [`SweepReport`]. Thread count cannot change a byte of the result.
pub fn latency_sweep_report(
    cfg: HostConfig,
    label: impl Into<String>,
    payloads: &[u64],
    through_switch: bool,
    master_seed: u64,
    runner: SweepRunner,
) -> (Series, SweepReport) {
    let label = label.into();
    let grid = scenarios(master_seed, payloads.iter().copied(), |p| {
        format!("{label}/payload={p}")
    });
    let results = runner
        .run(&grid, |sc| {
            netpipe_point(cfg, sc.input, through_switch, sc.seed)
        })
        .expect("latency sweep scenario panicked");
    let mut series = Series::new(label.clone());
    let mut report = SweepReport::new(label, master_seed);
    for (sc, lat) in grid.iter().zip(&results) {
        let us = lat.as_micros_f64();
        series.push(sc.input as f64, us);
        report.push_row(
            sc.index,
            sc.label.clone(),
            sc.seed,
            vec![
                ("payload".to_string(), Json::U64(sc.input)),
                ("one_way_us".to_string(), Json::F64(us)),
                ("through_switch".to_string(), Json::Bool(through_switch)),
            ],
        );
    }
    (series, report)
}

/// Sweep one-way latency over payloads (µs on the y axis), in parallel.
pub fn latency_sweep(
    cfg: HostConfig,
    label: impl Into<String>,
    payloads: &[u64],
    through_switch: bool,
) -> Series {
    let mut payloads: Vec<u64> = payloads.to_vec();
    payloads.sort_unstable();
    latency_sweep_report(
        cfg,
        label,
        &payloads,
        through_switch,
        super::throughput::MASTER_SEED,
        SweepRunner::default(),
    )
    .0
}

/// The Fig. 7 configuration: interrupt coalescing off.
pub fn without_coalescing(cfg: HostConfig) -> HostConfig {
    cfg.tuned(TuningStep::Coalescing(Nanos::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LadderRung;
    use tengig_ethernet::Mtu;

    fn base() -> HostConfig {
        LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000)
    }

    #[test]
    fn switch_adds_latency() {
        let b2b = netpipe_point(base(), 1, false, 18);
        let sw = netpipe_point(base(), 1, true, 18);
        let delta = sw.as_micros_f64() - b2b.as_micros_f64();
        // Paper: 25 µs vs 19 µs → ≈ 6 µs through the FastIron.
        assert!((4.5..7.5).contains(&delta), "switch delta {delta} µs");
    }

    #[test]
    fn coalescing_off_saves_about_5us() {
        let on = netpipe_point(base(), 1, false, 18);
        let off = netpipe_point(without_coalescing(base()), 1, false, 18);
        let delta = on.as_micros_f64() - off.as_micros_f64();
        assert!((4.0..6.0).contains(&delta), "coalescing delta {delta} µs");
    }

    #[test]
    fn latency_grows_modestly_with_payload() {
        // Fig. 6: +~20% from 1 byte to 1024 bytes, stepwise.
        let l1 = netpipe_point(base(), 1, false, 18).as_micros_f64();
        let l1024 = netpipe_point(base(), 1024, false, 1041).as_micros_f64();
        let growth = l1024 / l1;
        assert!(
            (1.05..1.5).contains(&growth),
            "growth {growth} ({l1} → {l1024})"
        );
    }

    #[test]
    fn sweep_is_monotone_in_payload() {
        let s = latency_sweep(base(), "b2b", &[1, 256, 512, 1024], false);
        for w in s.points.windows(2) {
            assert!(w[1].y >= w[0].y - 0.2, "latency should not shrink: {w:?}");
        }
    }
}
