//! Multi-flow aggregation through the switch (Fig. 2c, §3.5.2): many GbE
//! hosts against one 10GbE host, in either direction, plus the Itanium-II
//! aggregation anecdote of §3.4.

use super::run_window;
use crate::config::HostConfig;
use crate::lab::{self, App, Lab};
use crate::report::{Json, SweepReport};
use crate::sweep::{scenarios, SweepRunner};
use tengig_net::{Hop, Path};
use tengig_nic::NicSpec;
use tengig_sim::{rate_of, Bandwidth, Nanos, SimRng};
use tengig_tcp::Sysctls;
use tengig_tools::{NttcpReceiver, NttcpSender};

/// Data direction relative to the 10GbE host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// GbE senders → 10GbE receiver (receive-path stress).
    IntoTenGbe,
    /// 10GbE sender → GbE receivers (transmit-path stress).
    OutOfTenGbe,
}

/// Result of a multi-flow aggregation run.
#[derive(Debug, Clone, Copy)]
pub struct MultiflowResult {
    /// Number of GbE peers.
    pub peers: usize,
    /// Aggregate payload throughput at the 10GbE host, Gb/s.
    pub aggregate_gbps: f64,
    /// CPU load on the 10GbE host.
    pub tengbe_cpu_load: f64,
    /// Engine events executed over the whole run (warmup + window); feeds
    /// the wall-clock benchmark's events/sec figure.
    pub events: u64,
    /// Payload bytes delivered within the measurement window.
    pub window_bytes: u64,
}

/// The GbE peer configuration: a workstation with an e1000.
fn gbe_peer() -> HostConfig {
    HostConfig {
        hw: tengig_hw::HostSpec::gbe_workstation(),
        nic: NicSpec::e1000_gbe(),
        sysctls: Sysctls::linux24_defaults()
            .with_buffers(256 * 1024)
            .with_mtu(tengig_ethernet::Mtu::JUMBO_9000),
    }
}

/// Run `peers` GbE hosts against one 10GbE host through the FastIron, for
/// a measurement window after warmup, from `seed`. Payloads are full
/// GbE-MTU segments.
pub fn aggregate(
    tengbe: HostConfig,
    peers: usize,
    dir: Direction,
    warmup: Nanos,
    window: Nanos,
    seed: u64,
) -> MultiflowResult {
    let mut lab = Lab::new();
    let big = lab.add_host(tengbe);
    let mut rng = SimRng::seeded(seed);
    let line10 = Bandwidth::from_gbps(10);
    let line1 = Bandwidth::from_gbps(1);
    let sw_latency = Nanos::from_nanos(5_850);

    // Shared 10GbE egress toward the big host (the aggregation point) and
    // its shared ingress in the other direction.
    let to_big = lab.add_link(
        &Path {
            hops: vec![Hop::wire("sw-to-10g", line10, Nanos::from_nanos(50))
                .with_fixed(sw_latency)
                .with_buffer(2 << 20)],
        },
        rng.fork("to-big"),
    );
    let from_big = lab.add_link(
        &Path {
            hops: vec![Hop::wire("10g-to-sw", line10, Nanos::from_nanos(50))],
        },
        rng.fork("from-big"),
    );

    let payload = 8948u64; // jumbo frames end-to-end (both MTUs support it)
                           // A long-enough run to span the window at full rate.
    let budget = Bandwidth::from_gbps(11).bytes_in(warmup + window + window);
    let count = budget / payload / peers as u64;

    for p in 0..peers {
        let peer = lab.add_host(gbe_peer());
        // Per-peer GbE access link into / out of the switch.
        let access_in = lab.add_link(
            &Path {
                hops: vec![Hop::wire("gbe-access", line1, Nanos::from_nanos(100))],
            },
            rng.fork(&format!("acc-in-{p}")),
        );
        let access_out = lab.add_link(
            &Path {
                hops: vec![Hop::wire("sw-to-gbe", line1, Nanos::from_nanos(100))
                    .with_fixed(sw_latency)
                    .with_buffer(1 << 20)],
            },
            rng.fork(&format!("acc-out-{p}")),
        );
        let app = App::Nttcp {
            tx: NttcpSender::new(payload, count),
            rx: NttcpReceiver::new(payload * count),
        };
        match dir {
            Direction::IntoTenGbe => {
                // peer → switch (access) → shared 10GbE egress → big host.
                lab.add_flow(
                    peer,
                    big,
                    vec![access_in, to_big],
                    vec![from_big, access_out],
                    app,
                );
            }
            Direction::OutOfTenGbe => {
                // big host → switch → per-peer GbE egress.
                lab.add_flow(
                    big,
                    peer,
                    vec![from_big, access_out],
                    vec![access_in, to_big],
                    app,
                );
            }
        }
    }

    let mut eng = lab::engine(&mut lab, seed);
    let read = |lab: &Lab, at| {
        let bytes: u64 = lab.flows.iter().map(|f| f.app.received()).sum();
        (bytes, lab.hosts[big].hottest_cpu_busy(at))
    };
    let ((b0, busy0), (b1, busy1)) = run_window(&mut lab, &mut eng, warmup, window, read);
    MultiflowResult {
        peers,
        aggregate_gbps: rate_of(b1 - b0, window).gbps(),
        tengbe_cpu_load: (busy1.saturating_sub(busy0)).as_nanos() as f64 / window.as_nanos() as f64,
        events: eng.executed(),
        window_bytes: b1 - b0,
    }
}

/// Sweep aggregation over peer counts on the deterministic sweep runner.
/// Returns the per-point results (in grid order) plus the machine-readable
/// [`SweepReport`].
pub fn peer_sweep_report(
    tengbe: HostConfig,
    peer_counts: &[usize],
    dir: Direction,
    warmup: Nanos,
    window: Nanos,
    master_seed: u64,
    runner: SweepRunner,
) -> (Vec<MultiflowResult>, SweepReport) {
    let name = match dir {
        Direction::IntoTenGbe => "multiflow/into_10gbe",
        Direction::OutOfTenGbe => "multiflow/out_of_10gbe",
    };
    let grid = scenarios(master_seed, peer_counts.iter().copied(), |n| {
        format!("peers={n}")
    });
    let results = runner
        .run(&grid, |sc| {
            aggregate(tengbe, sc.input, dir, warmup, window, sc.seed)
        })
        .expect("multiflow sweep scenario panicked");
    let mut report = SweepReport::new(name, master_seed);
    for (sc, r) in grid.iter().zip(&results) {
        report.push_row(
            sc.index,
            sc.label.clone(),
            sc.seed,
            vec![
                ("peers".to_string(), Json::U64(r.peers as u64)),
                ("aggregate_gbps".to_string(), Json::F64(r.aggregate_gbps)),
                ("tengbe_cpu_load".to_string(), Json::F64(r.tengbe_cpu_load)),
            ],
        );
    }
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LadderRung;
    use tengig_ethernet::Mtu;

    fn tengbe() -> HostConfig {
        LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000)
    }

    #[test]
    fn aggregation_scales_with_senders() {
        let w = Nanos::from_millis(30);
        let one = aggregate(tengbe(), 1, Direction::IntoTenGbe, w, w, 99);
        let four = aggregate(tengbe(), 4, Direction::IntoTenGbe, w, w, 99);
        assert!(
            one.aggregate_gbps < 1.0,
            "one GbE sender caps at ~0.95: {}",
            one.aggregate_gbps
        );
        assert!(
            four.aggregate_gbps > one.aggregate_gbps * 2.5,
            "4 senders {} vs 1 sender {}",
            four.aggregate_gbps,
            one.aggregate_gbps
        );
    }

    #[test]
    fn tx_and_rx_paths_statistically_equal() {
        // §3.5.2: "These results unexpectedly show that the transmit and
        // receive paths are of statistically equal performance."
        let w = Nanos::from_millis(30);
        let rx = aggregate(tengbe(), 3, Direction::IntoTenGbe, w, w, 99);
        let tx = aggregate(tengbe(), 3, Direction::OutOfTenGbe, w, w, 99);
        let ratio = rx.aggregate_gbps / tx.aggregate_gbps;
        assert!((0.75..1.35).contains(&ratio), "rx/tx ratio {ratio}");
    }
}
