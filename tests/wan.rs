//! The §4 WAN experiments: the record run and its failure modes, plus a
//! simulation validation of Table 1's recovery-time model.

use tengig::analytic::recovery_time;
use tengig::experiments::wan::{record_run, wan_lab_seeded};
use tengig::lab;
use tengig_net::WanSpec;
use tengig_sim::{Bandwidth, Nanos};

#[test]
fn record_run_reaches_paper_throughput() {
    let wan = WanSpec::record_run();
    let r = record_run(&wan, None, Nanos::from_secs(3), Nanos::from_secs(2), 2003);
    assert!(
        (2.25..2.45).contains(&r.gbps),
        "steady-state {} Gb/s (paper: 2.38)",
        r.gbps
    );
    assert_eq!(r.retransmits, 0, "the record run was loss-free");
    assert_eq!(r.drops, 0);
    assert!(
        r.payload_efficiency > 0.93,
        "payload efficiency {}",
        r.payload_efficiency
    );
    assert!(
        r.terabyte_time < Nanos::from_secs(3600),
        "a terabyte in under an hour, got {}",
        r.terabyte_time
    );
}

#[test]
fn undersized_buffers_are_window_limited() {
    // W/RTT with a 6 MB usable window at 180 ms ≈ 0.27 Gb/s.
    let wan = WanSpec::record_run();
    let r = record_run(
        &wan,
        Some(8 << 20),
        Nanos::from_secs(2),
        Nanos::from_secs(2),
        2003,
    );
    assert!(r.gbps < 0.8, "undersized buffers still got {} Gb/s", r.gbps);
    assert_eq!(r.retransmits, 0, "window-limited, not loss-limited");
}

#[test]
fn shallow_router_buffers_plus_big_windows_lose_packets() {
    // §3.5.1: "in a WAN environment, setting the socket buffer too large
    // can severely impact performance" — the congestion window overruns
    // the bottleneck queue and AIMD recovery at 180 ms RTT is glacial
    // (Table 1).
    let wan = WanSpec::record_run().with_bottleneck_buffer(6 << 20);
    let r = record_run(
        &wan,
        Some(256 << 20),
        Nanos::from_secs(2),
        Nanos::from_secs(3),
        2003,
    );
    assert!(r.drops > 0, "overdriven bottleneck must drop");
    assert!(r.retransmits > 0);
    let clean = record_run(
        &WanSpec::record_run(),
        None,
        Nanos::from_secs(2),
        Nanos::from_secs(3),
        2003,
    );
    assert!(
        r.gbps < clean.gbps * 0.7,
        "loss must hurt: {} vs clean {}",
        r.gbps,
        clean.gbps
    );
}

#[test]
fn slow_start_then_steady_state_timeline() {
    // The flow must still be ramping early and saturated late.
    let wan = WanSpec::record_run();
    let (mut lab, mut eng) = wan_lab_seeded(&wan, None, 2003);
    lab::kick(&mut lab, &mut eng);
    let received = |lab: &tengig::lab::Lab| lab.flows[0].app.received();
    eng.run_until(&mut lab, Nanos::from_millis(900));
    let early = received(&lab); // ~5 RTTs of slow start
    eng.run_until(&mut lab, Nanos::from_secs(4));
    let mid = received(&lab);
    eng.run_until(&mut lab, Nanos::from_secs(5));
    let late = received(&lab);
    let early_rate = early as f64 * 8.0 / 0.9e9;
    let late_rate = (late - mid) as f64 * 8.0 / 1e9;
    assert!(
        early_rate < late_rate / 3.0,
        "slow start ({early_rate:.2} Gb/s) must be well below steady state ({late_rate:.2})"
    );
    assert!(
        (2.2..2.5).contains(&late_rate),
        "steady {late_rate:.2} Gb/s"
    );
}

#[test]
fn recovery_time_validated_by_simulation() {
    // Table 1's closed form, checked against the simulator at a scaled-down
    // operating point (10 ms RTT so a recovery episode fits a short run):
    // after an isolated loss, AIMD takes ≈ W/2 RTTs to regain the rate.
    let rtt = Nanos::from_millis(10);
    let mss = 8948u64;
    let rate = Bandwidth::from_gbps_f64(2.4);
    let predicted = recovery_time(rate, rtt, mss);
    // W = 2.4e9 × 0.01 / (8 × 8948) ≈ 335 segments → ≈ 168 RTTs ≈ 1.68 s.
    assert!(
        (1.4..2.0).contains(&predicted.as_secs_f64()),
        "predicted {predicted}"
    );

    // Simulate: same bottleneck, 10 ms RTT, one forced loss via a tiny
    // random-loss probability applied long enough to hit ~one frame.
    let wan = WanSpec {
        prop_svl_chi: Nanos::from_millis(2),
        prop_chi_gva: Nanos::from_millis(3),
        ..WanSpec::record_run()
    };
    // Clean baseline.
    let clean = record_run(
        &wan,
        None,
        Nanos::from_millis(600),
        Nanos::from_millis(400),
        2003,
    );
    assert!(clean.gbps > 2.0, "clean baseline {}", clean.gbps);
    // With sparse random loss the average sits visibly below the clean
    // rate: each loss costs ~W/2 RTTs of reduced window (the Table 1
    // mechanism at miniature scale).
    let lossy_spec = wan.with_random_loss(2e-5);
    let lossy = record_run(
        &lossy_spec,
        None,
        Nanos::from_millis(600),
        Nanos::from_secs(3),
        2003,
    );
    assert!(lossy.retransmits > 0, "loss process must have fired");
    assert!(
        lossy.gbps < clean.gbps * 0.97,
        "AIMD sawtooth must depress the average: {} vs {}",
        lossy.gbps,
        clean.gbps
    );
}
