//! §3.5.2 multi-flow aggregation and §3.4 anecdotal hosts.

use tengig::config::LadderRung;
use tengig::experiments::anecdotal::{e7505_out_of_box, itanium_aggregation};
use tengig::experiments::multiflow::{aggregate, Direction};
use tengig::experiments::throughput::{nttcp_point, pktgen_run};
use tengig_ethernet::Mtu;
use tengig_sim::Nanos;

fn tengbe() -> tengig::config::HostConfig {
    LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000)
}

#[test]
fn aggregation_approaches_single_flow_ceiling() {
    // Aggregating GbE senders into one PE2650 receiver tops out near the
    // same host ceiling a single tuned 10GbE flow hits.
    let w = Nanos::from_millis(30);
    let agg = aggregate(tengbe(), 5, Direction::IntoTenGbe, w, w, 99);
    let single = nttcp_point(tengbe(), 8948, 1_500, 3).throughput.gbps();
    assert!(agg.aggregate_gbps > 2.5, "aggregate {}", agg.aggregate_gbps);
    assert!(
        agg.aggregate_gbps < single * 1.35,
        "aggregate {} cannot much exceed the host ceiling {}",
        agg.aggregate_gbps,
        single
    );
}

#[test]
fn transmit_and_receive_paths_statistically_equal() {
    // §3.5.2: the unexpected symmetry between tx and rx multiflow paths.
    let w = Nanos::from_millis(30);
    let rx = aggregate(tengbe(), 3, Direction::IntoTenGbe, w, w, 99);
    let tx = aggregate(tengbe(), 3, Direction::OutOfTenGbe, w, w, 99);
    let ratio = rx.aggregate_gbps / tx.aggregate_gbps;
    assert!((0.7..1.4).contains(&ratio), "rx/tx ratio {ratio}");
}

#[test]
fn receive_benefits_from_interrupt_coalescing_bursts() {
    // §3.5.2: "Packets from multiple hosts are more likely to be received
    // in frequent bursts … allowing the receive path to benefit from
    // interrupt coalescing." More senders → bigger mean batches would show
    // on the receiver; here we check the aggregate CPU cost per byte does
    // not balloon with sender count.
    let w = Nanos::from_millis(30);
    let two = aggregate(tengbe(), 2, Direction::IntoTenGbe, w, w, 99);
    let five = aggregate(tengbe(), 5, Direction::IntoTenGbe, w, w, 99);
    let cost_two = two.tengbe_cpu_load / two.aggregate_gbps;
    let cost_five = five.tengbe_cpu_load / five.aggregate_gbps;
    assert!(
        cost_five < cost_two * 1.3,
        "per-Gb/s CPU cost should not balloon: {cost_two:.3} -> {cost_five:.3}"
    );
}

#[test]
fn pktgen_vs_tcp_ratio_matches_paper() {
    // §3.5.2: observed TCP ≈ 75% of the single-copy packet generator.
    let cfg = LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160);
    let pg = pktgen_run(cfg, 8132, 4_000);
    let tcp = nttcp_point(cfg, 8108, 1_500, 3).throughput.gbps();
    assert!((4.9..6.3).contains(&pg.gbps), "pktgen {}", pg.gbps);
    let ratio = tcp / pg.gbps;
    assert!(
        (0.6..0.85).contains(&ratio),
        "tcp/pktgen ratio {ratio} (paper ~0.75)"
    );
}

#[test]
fn e7505_out_of_box_beats_tuned_pe2650() {
    // §3.4: 4.64 Gb/s "essentially out of the box".
    let e7 = e7505_out_of_box(1_500).throughput.gbps();
    let pe = nttcp_point(
        LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160),
        8108,
        1_500,
        3,
    )
    .throughput
    .gbps();
    assert!(e7 > pe, "E7505 {e7} must beat tuned PE2650 {pe}");
    assert!((4.0..5.4).contains(&e7), "E7505 {e7} (paper 4.64)");
}

#[test]
fn itanium_aggregation_exceeds_xeon_hosts() {
    // §3.4: 7.2 Gb/s into the quad Itanium-II.
    let w = Nanos::from_millis(25);
    let it = itanium_aggregation(8, w, w);
    let pe = aggregate(tengbe(), 8, Direction::IntoTenGbe, w, w, 99);
    assert!(
        it.aggregate_gbps > pe.aggregate_gbps,
        "Itanium {} must beat the PE2650 {}",
        it.aggregate_gbps,
        pe.aggregate_gbps
    );
    assert!(
        it.aggregate_gbps > 4.8,
        "Itanium aggregate {}",
        it.aggregate_gbps
    );
}
