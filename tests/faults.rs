//! The fault-injection family end to end: burst-loss shape sensitivity,
//! carrier-flap recovery vs RTT, the chaos campaign's determinism and
//! seed-reproduction contract, and an event-level pin of an impaired
//! pair.

use tengig::config::HostConfig;
use tengig::experiments::faults::{
    burst_sweep_report, chaos_campaign, chaos_run, faults_lab_tuned, flap_recovery_run_tuned,
    flap_recovery_sweep_report, scaled_wan, BURST_LENGTHS, FLAP_RTTS,
};
use tengig::experiments::{pair, run_to_completion};
use tengig::lab::{arm_flight_recorder, flight_dump, App};
use tengig::sweep::SweepRunner;
use tengig_hw::HostSpec;
use tengig_net::{GilbertElliott, Hop, Impairments, Path, Reorder};
use tengig_nic::NicSpec;
use tengig_sim::{Bandwidth, Nanos, Sanitizer};
use tengig_tcp::Sysctls;
use tengig_tools::{NttcpReceiver, NttcpSender};

#[test]
fn goodput_degrades_monotonically_with_burst_length() {
    // Fixed 0.3% mean loss, burst lengths bracketing the ~21-frame
    // window: once a burst reaches the window's size there are too few
    // survivors to supply three duplicate ACKs, recovery falls to RTO,
    // and past the window the retransmission probes the same
    // frame-clocked bad state — so the same *amount* of loss costs more
    // goodput the more it clumps (see BURST_LENGTHS for the regime map).
    let (results, report) = burst_sweep_report(
        3e-3,
        &BURST_LENGTHS,
        Nanos::from_secs(2),
        Nanos::from_secs(90),
        2003,
        SweepRunner::new(1),
    );
    for (b, r) in BURST_LENGTHS.iter().zip(&results) {
        eprintln!(
            "burst={b:>4}: {:.3} Gb/s rtx={} rto={} fast={} impair_drops={}",
            r.gbps, r.retransmits, r.timeouts, r.fast_retransmits, r.impair_drops
        );
    }
    for w in results.windows(2) {
        assert!(
            w[1].gbps < w[0].gbps,
            "longer bursts at fixed mean loss must cost goodput: {} then {}",
            w[0].gbps,
            w[1].gbps
        );
    }
    // Every point actually exercised the burst chain.
    for r in &results {
        assert!(r.impair_drops > 0, "the loss process must have fired");
    }
    assert_eq!(report.to_jsonl().lines().count(), BURST_LENGTHS.len() + 1);
}

#[test]
fn flap_recovery_time_grows_with_rtt() {
    // Table 1's trend, measured instead of predicted: after a carrier
    // outage long enough to kill the in-flight window, the time to repair
    // the damage scales with RTT (both the RTO estimate and the window
    // refill are RTT-clocked).
    let (results, _report) = flap_recovery_sweep_report(&FLAP_RTTS, 2003, SweepRunner::new(1));
    for r in &results {
        eprintln!(
            "rtt={:>6}: recovery={} rto={} rtx={} flap_drops={}",
            r.rtt, r.recovery, r.timeouts, r.retransmits, r.flap_drops
        );
        assert!(r.flap_drops > 0, "the outage must have eaten frames");
        assert!(r.timeouts > 0, "an outage spanning the window forces RTO");
    }
    for w in results.windows(2) {
        assert!(
            w[1].recovery > w[0].recovery,
            "recovery must grow with RTT: {} then {}",
            w[0].recovery,
            w[1].recovery
        );
    }
}

#[test]
fn flap_ladder_is_invariant_to_the_rto_ceiling() {
    // The RFC 6298 §5.5 ceiling (rto_max_ms, default 60 s) exists for
    // wedged flows whose backoff would otherwise run away; on the flap
    // ladder the outage is over within a few backoff doublings, so the
    // cap must bind nowhere. Proof: raising the ceiling to an hour
    // changes nothing, at any rung — the ladder's goldens are untouched
    // by the clamp's introduction.
    for &rtt in &FLAP_RTTS {
        let stock = flap_recovery_run_tuned(rtt, 2003, &|s| s);
        let sky = flap_recovery_run_tuned(rtt, 2003, &|s| s.with_rto_max_ms(3_600_000));
        assert_eq!(
            (
                stock.recovery,
                stock.timeouts,
                stock.retransmits,
                stock.flap_drops
            ),
            (sky.recovery, sky.timeouts, sky.retransmits, sky.flap_drops),
            "the 60 s cap must not bind at rtt={rtt}"
        );
    }
    // Positive control: the knob really is plumbed through. Pinching the
    // ceiling down to the 200 ms RTO floor disables backoff entirely, so
    // the outage's retransmission clock speeds up and the run visibly
    // changes — the invariance above is meaningful, not vacuous.
    let stock = flap_recovery_run_tuned(FLAP_RTTS[0], 2003, &|s| s);
    let pinched = flap_recovery_run_tuned(FLAP_RTTS[0], 2003, &|s| s.with_rto_max_ms(200));
    assert_ne!(
        (stock.recovery, stock.timeouts, stock.retransmits),
        (pinched.recovery, pinched.timeouts, pinched.retransmits),
        "a 200 ms ceiling must change the retransmission clock"
    );
}

#[test]
fn chaos_campaign_is_thread_count_invariant_and_survives() {
    // 64 seeded impairment cocktails through the sanitizer: everyone
    // survives, and the campaign report is byte-identical whether the
    // scenarios ran on one worker or four.
    let (rows, report1) = chaos_campaign(64, 77, None, SweepRunner::new(1));
    let (_, report4) = chaos_campaign(64, 77, None, SweepRunner::new(4));
    assert_eq!(
        report1.to_jsonl(),
        report4.to_jsonl(),
        "campaign must be byte-identical across thread counts"
    );
    let failures: Vec<_> = rows.iter().filter(|r| r.outcome.is_err()).collect();
    assert!(
        failures.is_empty(),
        "chaos scenarios failed: {:?}",
        failures
            .iter()
            .map(|r| (r.index, r.seed))
            .collect::<Vec<_>>()
    );
    // The cocktail space was actually explored.
    let ok = |f: fn(&tengig::experiments::faults::ChaosOutcome) -> bool| {
        rows.iter()
            .any(|r| r.outcome.as_ref().map(f).unwrap_or(false))
    };
    assert!(ok(|o| o.impair_drops > 0), "no scenario drew burst loss");
    assert!(ok(|o| o.reordered > 0), "no scenario drew reordering");
    assert!(ok(|o| o.dup_frames > 0), "no scenario drew duplication");
    assert!(ok(|o| o.crc_drops > 0), "no scenario drew corruption");
    assert!(ok(|o| o.timeouts > 0), "no scenario hit an RTO");
}

#[test]
fn total_corruption_starves_the_receiver_without_tripping_the_sanitizer() {
    // `corrupt: 1.0` flips bits in every data frame; the receiving NIC's
    // checksum catches each one and drops it. The byte-conservation
    // ledger must account every corrupted frame (the sanitizer stays
    // quiet), the receiver must never see a payload byte, and the sender
    // must be grinding through RTO-clocked retransmissions of data that
    // can never arrive.
    let mut wan = scaled_wan(Nanos::from_millis(20), 64 << 20);
    wan.impair = Impairments::none().with_corrupt(1.0);
    let (mut lab, mut eng) = faults_lab_tuned(&wan, Some(256 << 10), 4242, &|s| s);
    // Arm explicitly: this test is about the invariants, so they must be
    // on in release builds too (the lab default is debug-only).
    eng.install_sanitizer(Sanitizer::new(4242));
    tengig::lab::kick(&mut lab, &mut eng);
    eng.run_until(&mut lab, Nanos::from_secs(2));
    let received = lab.flows[0].app.received();
    assert_eq!(received, 0, "no corrupted frame may reach the application");
    assert!(
        lab.hosts[1].rx_crc_drops > 0,
        "the receiving NIC must have discarded corrupted frames"
    );
    let conn = &lab.flows[0].conns[0];
    assert!(
        conn.cc.timeouts > 0 && conn.stats.retransmits > 0,
        "with every data frame corrupted, recovery is RTO-clocked: {} rto, {} rtx",
        conn.cc.timeouts,
        conn.stats.retransmits
    );
    // Undrained check: frames still in flight are fine, but every
    // terminated byte must be in the ledger (delivered or accounted as
    // a checksum drop).
    tengig::lab::check_sanitizer(&lab, &mut eng, false);
}

#[test]
fn chaos_failures_reproduce_from_their_seed() {
    // Deliberately fail scenario 5 through the same panic-capture path a
    // real invariant violation takes, then reproduce it standalone from
    // the seed the campaign reported — the contract behind the
    // `tengig-check chaos repro --seed` CLI line.
    let (rows, report) = chaos_campaign(8, 77, Some(5), SweepRunner::new(2));
    let failed: Vec<_> = rows.iter().filter(|r| r.outcome.is_err()).collect();
    assert_eq!(failed.len(), 1);
    let row = failed[0];
    assert_eq!(row.index, 5);
    let text = row.outcome.as_ref().unwrap_err();
    assert!(text.contains(&format!("seed {}", row.seed)));
    // Standalone repro from the reported seed, same failure text.
    let repro = chaos_run(row.seed, true).expect_err("repro must fail identically");
    assert_eq!(&repro, text);
    // The report records the failure without aborting the other rows.
    let jsonl = report.to_jsonl();
    assert!(jsonl.contains("\"survived\":false"));
    assert_eq!(
        jsonl.matches("\"survived\":true").count(),
        7,
        "the other scenarios must still run"
    );
}

/// FNV-1a over `bytes`: a dependency-free, platform-independent digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn impaired_pair_fires_every_event_in_its_pinned_order() {
    // An event-level pin, stronger than any report golden: every event
    // both hosts fire, with its time and fields, in firing order. The
    // impairments sit on the last hop of a 10 ms-RTT path (on an earlier
    // hop, the next hop's FIFO admission would undo a reorder), so wire
    // arrivals take every scheduling path: in order behind a full pipe,
    // overtaken by a later frame (reordering), minted twice
    // (duplication), and missing (burst loss). A change to how arrivals
    // are queued that moves any arrival's place in the pop order moves
    // this digest. It hashes each event's `Debug` text, so a field
    // deleted from a fired event's payload moves it too, even when the
    // event order stays put.
    let cfg = HostConfig {
        hw: HostSpec::wan_endpoint(),
        nic: NicSpec::intel_pro_10gbe(),
        sysctls: Sysctls::wan_tuned(4 << 20),
    };
    let link = |impair: Impairments| Path {
        hops: vec![
            Hop::wire("uplink", Bandwidth::from_gbps(10), Nanos::from_micros(5)),
            Hop::wire("long-haul", Bandwidth::from_gbps(1), Nanos::from_millis(5))
                .with_buffer(1 << 20)
                .with_impairments(impair),
        ],
    };
    let impair = Impairments::none()
        .with_burst(GilbertElliott::bursty(0.005, 3.0))
        .with_reorder(Reorder::new(
            0.05,
            Nanos::from_micros(10),
            Nanos::from_micros(500),
        ))
        .with_duplicate(0.01);
    let payload = cfg.sysctls.mss();
    let count = (4 << 20) / payload;
    let app = App::Nttcp {
        tx: NttcpSender::new(payload, count),
        rx: NttcpReceiver::new(payload * count),
    };
    let (fwd, rev) = (link(impair), link(Impairments::none()));
    let (mut lab, mut eng) = pair(cfg, cfg, &fwd, &rev, app, 2003);
    arm_flight_recorder(&mut lab, 1 << 15);
    run_to_completion(&mut lab, &mut eng);
    let path = &lab.links[0];
    assert!(path.reordered_frames() > 0, "the path must have reordered");
    assert!(path.dup_frames() > 0, "the path must have duplicated");
    assert!(path.impair_drops() > 0, "the burst chain must have fired");
    let dump = flight_dump(&lab);
    assert_eq!(
        dump.len() as u64,
        eng.executed(),
        "the rings must hold every fired event"
    );
    assert_eq!(
        (eng.executed(), fnv1a(dump.text().as_bytes())),
        (7702, 0x1cbc_ec7f_6626_7d41),
        "fired-event digest moved"
    );
}
