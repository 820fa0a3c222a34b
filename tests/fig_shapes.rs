//! Figure-shape fidelity: the qualitative features of Figs. 3-7 that the
//! paper's analysis explains must emerge from the simulation.

use tengig::config::LadderRung;
use tengig::experiments::latency::{latency_sweep, netpipe_point, without_coalescing};
use tengig::experiments::throughput::throughput_sweep;
use tengig_ethernet::Mtu;

const COUNT: u64 = 1_200;

#[test]
fn fig3_throughput_rises_with_payload() {
    // Both stock curves climb from small payloads toward their peaks.
    let payloads: Vec<u64> = vec![256, 512, 1024, 1448, 2048, 4096, 8192, 8948];
    let s = throughput_sweep(
        LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000),
        "9000MTU,SMP,512PCI",
        &payloads,
        COUNT,
    );
    let small = s.at(512.0).unwrap();
    let big = s.at(8948.0).unwrap();
    assert!(big > small * 2.0, "payload scaling: {small} -> {big}");
}

#[test]
fn fig3_jumbo_dip_below_the_mss() {
    // The 9000-MTU stock curve dips for payloads just below the MSS
    // (7436-8948 in the paper): sub-MSS segments waste packet-counted
    // window slots while the default buffers are already tight.
    let payloads: Vec<u64> = (6_400..=8_948).step_by(128).chain([8_948]).collect();
    let s = throughput_sweep(
        LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000),
        "stock",
        &payloads,
        COUNT,
    );
    let at_mss = s.at(8_948.0).unwrap();
    let dip = s.min_in(7_436.0, 8_947.0).unwrap();
    assert!(
        dip < at_mss * 0.93,
        "a marked dip below the MSS: dip {dip} vs peak {at_mss}"
    );
}

#[test]
fn fig4_oversized_windows_fill_the_dip() {
    // §3.3: "oversizing the TCP windows did eliminate the marked dip".
    let payloads: Vec<u64> = (6_400..=8_948).step_by(256).chain([8_948]).collect();
    let stock = throughput_sweep(
        LadderRung::Stock.pe2650_config(Mtu::JUMBO_9000),
        "stock",
        &payloads,
        COUNT,
    );
    let tuned = throughput_sweep(
        LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000),
        "tuned",
        &payloads,
        COUNT,
    );
    let stock_dip = stock.min_in(7_436.0, 8_947.0).unwrap() / stock.at(8_948.0).unwrap();
    let tuned_dip = tuned.min_in(7_436.0, 8_947.0).unwrap() / tuned.at(8_948.0).unwrap();
    assert!(
        tuned_dip > stock_dip,
        "oversized windows shallow the dip: stock {stock_dip:.3} vs tuned {tuned_dip:.3}"
    );
}

#[test]
fn fig5_16000_has_higher_average_than_8160_similar_peak() {
    // §3.3: "the peak throughput [at 16000] is virtually identical to the
    // 8160-byte MTU case. However, the average throughput with the larger
    // MTU is clearly much higher" — because payloads between 8108 and
    // 15948 still fit one segment.
    let payloads: Vec<u64> = (2_048..=15_948)
        .step_by(1_024)
        .chain([8_108, 15_948])
        .collect();
    let mut payloads = payloads;
    payloads.sort_unstable();
    let m8160 = throughput_sweep(
        LadderRung::Mtu8160.pe2650_config(Mtu::TUNED_8160),
        "8160",
        &payloads,
        COUNT,
    );
    let m16000 = throughput_sweep(
        LadderRung::Mtu16000.pe2650_config(Mtu::MAX_INTEL_16000),
        "16000",
        &payloads,
        COUNT,
    );
    let peak_ratio = m16000.peak() / m8160.peak();
    assert!(
        (0.9..1.25).contains(&peak_ratio),
        "peaks similar: {peak_ratio}"
    );
    // Direction holds (payloads in 8109-15948 ride in one segment instead
    // of two); the magnitude is muted in the model because the memory-bus
    // ceiling flattens both curves near the peak — see EXPERIMENTS.md.
    assert!(
        m16000.mean() > m8160.mean(),
        "16000 mean {} must beat 8160 mean {}",
        m16000.mean(),
        m8160.mean()
    );
}

#[test]
fn fig6_latency_steps_and_grows_about_20pct_to_1kb() {
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    let payloads: Vec<u64> = vec![1, 64, 128, 256, 512, 768, 1024];
    let b2b = latency_sweep(cfg, "b2b", &payloads, false);
    // Monotone non-decreasing.
    for w in b2b.points.windows(2) {
        assert!(w[1].y >= w[0].y - 0.05, "latency must not shrink: {w:?}");
    }
    let growth = b2b.at(1024.0).unwrap() / b2b.at(1.0).unwrap();
    assert!(
        (1.1..1.45).contains(&growth),
        "1B→1KB growth {growth} (paper ~1.2)"
    );
    // Roughly linear: each 256-byte increment adds a similar amount
    // (the per-byte slope dominates; the 64-byte copy quanta are tested
    // at unit level in `tengig_hw::cpu`).
    let d1 = b2b.at(512.0).unwrap() - b2b.at(256.0).unwrap();
    let d2 = b2b.at(1024.0).unwrap() - b2b.at(768.0).unwrap();
    assert!((d1 - d2).abs() < 1.0, "linear growth: {d1} vs {d2}");
}

#[test]
fn fig7_coalescing_off_shifts_the_whole_curve_down() {
    let base = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    for payload in [1u64, 512, 1024] {
        let on = netpipe_point(base, payload, false, 17 + payload).as_micros_f64();
        let off =
            netpipe_point(without_coalescing(base), payload, false, 17 + payload).as_micros_f64();
        let delta = on - off;
        assert!(
            (4.0..6.0).contains(&delta),
            "coalescing delta at {payload} B: {delta} µs (expected ~5)"
        );
    }
}

#[test]
fn switch_adds_constant_latency_across_payloads() {
    // Fig. 6's two curves stay ~6 µs apart over the whole payload range.
    let cfg = LadderRung::OversizedWindows.pe2650_config(Mtu::JUMBO_9000);
    for payload in [1u64, 512, 1024] {
        let b2b = netpipe_point(cfg, payload, false, 17 + payload).as_micros_f64();
        let sw = netpipe_point(cfg, payload, true, 17 + payload).as_micros_f64();
        let delta = sw - b2b;
        assert!(
            (4.5..8.0).contains(&delta),
            "switch delta at {payload} B: {delta} µs"
        );
    }
}
